//! The serve world: client fleet → admission → bounded ingress →
//! coalescing workers → circuit-broken X connection.
//!
//! One `Serve.Main` root thread owns the client fleet (sessions are
//! data on a timer wheel, not threads — a million sessions costs a
//! million wheel entries, not a million stacks), forks the pipeline
//! threads, and harvests every counter into a [`ServeOutcome`].

use paradigms::pump::BoundedQueue;
use pcr::{
    micros, millis, secs, PolicyKind, Priority, RunLimit, Sim, SimConfig, SimDuration, SimTime,
    StopReason, ThreadCtx,
};

use crate::admission::TokenBucket;
use crate::breaker::CircuitBreaker;
use crate::clients::{ClientCounters, ClientPopulation, Completion, Outcome, RejectReason};
use crate::codel::{CoDel, CodelSpec, CodelVerdict};
use crate::degrade::{self, Ladder};
use crate::metrics::ServeMetrics;
use crate::report::SloTargets;
use crate::retry::RetryPolicy;
use crate::traffic::{default_mix, ClassParams, LoadShape, ServeScenario, SessionClass};

/// The X connection's cost model: the per-batch overhead dominates small
/// batches, which is what makes merging worthwhile (§5.2).
#[derive(Clone, Copy, Debug)]
pub struct ServerCosts {
    /// Charged once per batch (connection + round-trip overhead).
    pub per_batch: SimDuration,
    /// Charged per request in a batch.
    pub per_request: SimDuration,
}

impl Default for ServerCosts {
    fn default() -> Self {
        ServerCosts {
            per_batch: millis(2),
            per_request: micros(150),
        }
    }
}

impl ServerCosts {
    /// Total cost of writing one batch of `n` requests.
    pub fn batch_cost(&self, n: usize) -> SimDuration {
        self.per_batch + self.per_request * n as u64
    }
}

/// The cost model of the serve world's persistent batched X connection:
/// far cheaper than the default interactive pipeline (no per-batch
/// connection setup), which is what makes a million-session open-loop
/// world feasible at all.
const XCONN_COSTS: ServerCosts = ServerCosts {
    per_batch: micros(600),
    per_request: micros(60),
};

/// Batch queue bound between workers and the X connection. Keep the pipe
/// *downstream* of the shedding point short: backlog must accumulate in
/// ingress, where CoDel and the deadline check can act on it, not past
/// them.
const XQ_CAPACITY: usize = 2;
/// CV timeout for the pipeline queues (keeps idle waits Mesa-honest).
const CV_TIMEOUT: Option<SimDuration> = Some(millis(50));
/// Client-loop housekeeping tick while requests are outstanding.
const TICK: SimDuration = millis(1);
/// Admission rate headroom over the expected per-class offered rate.
const ADMISSION_HEADROOM: f64 = 1.8;
/// Admission bucket depth, seconds of headroom rate.
const ADMISSION_BURST_SECS: f64 = 0.25;
/// Controller wake interval.
const CONTROL_INTERVAL: SimDuration = millis(250);

/// Everything that determines a serve run. Fully deterministic: two
/// specs with equal fields produce byte-identical reports.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// Client sessions to simulate (10k–1M is the intended range).
    pub sessions: u32,
    /// Arrival window (sessions start inside it; the run drains past it).
    pub window: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Traffic mix.
    pub mix: Vec<ClassParams>,
    /// Arrival shaping (diurnal ramp + bursts).
    pub shape: LoadShape,
    /// Simulated pipeline worker threads.
    pub workers: usize,
    /// Ingress queue bound (backpressure past this).
    pub ingress_capacity: usize,
    /// Completion queue bound (server → clients).
    pub completion_capacity: usize,
    /// Client retry policy (the budget switch).
    pub retry: RetryPolicy,
    /// Latency gates the run is measured against.
    pub slo: SloTargets,
    /// X-connection outage windows as `(offset, duration)` from t=0.
    pub outage: Vec<(SimDuration, SimDuration)>,
    /// Scheduling policy for the simulator.
    pub policy: PolicyKind,
}

impl ServeSpec {
    /// The reference cell: diurnal ramp with two bursts, no outage.
    /// The window scales so the offered rate stays ~300 sessions/s —
    /// the diurnal peak then sits near half of pipeline capacity, so
    /// the cell meets its SLOs with margin (overload is what the burst
    /// and outage scenarios are for).
    pub fn reference(sessions: u32, seed: u64) -> ServeSpec {
        let window_secs = (sessions as u64).div_ceil(300).max(20);
        ServeSpec {
            sessions,
            window: secs(window_secs),
            seed,
            mix: default_mix(),
            shape: LoadShape::reference(),
            workers: 2,
            ingress_capacity: 512,
            completion_capacity: 2048,
            retry: RetryPolicy::default(),
            slo: SloTargets::default(),
            outage: Vec::new(),
            policy: PolicyKind::RoundRobin,
        }
    }

    /// A named scenario cell.
    pub fn scenario(sc: ServeScenario, sessions: u32, seed: u64) -> ServeSpec {
        let mut spec = ServeSpec::reference(sessions, seed);
        match sc {
            ServeScenario::Reference => {}
            ServeScenario::Burst => {
                // Overload spike: taller bursts than the admission
                // headroom was provisioned for, and sessions that fire
                // their events 3× faster (same events per session,
                // concentrated) so a burst of starts really is a burst
                // of requests rather than a smear.
                spec.shape = LoadShape {
                    diurnal: true,
                    bursts: 3,
                    burst_amp: 6.0,
                    burst_width: 0.015,
                };
                for c in &mut spec.mix {
                    c.events_per_sec *= 3.0;
                    c.active_secs /= 3.0;
                }
            }
            ServeScenario::Outage => {
                // Two 1.2 s blackouts, at 35 % and 65 % of the window.
                let at = |pct| (micros(spec.window.as_micros() * pct / 100), millis(1200));
                spec.outage = vec![at(35), at(65)];
            }
        }
        spec
    }

    /// A small, hot cell for fuzzing: few sessions, tight queues, short
    /// window — pressure without long runtimes.
    pub fn fuzz_small(sc: ServeScenario, seed: u64) -> ServeSpec {
        let mut spec = ServeSpec::scenario(sc, 600, seed);
        spec.window = secs(6);
        spec.ingress_capacity = 64;
        spec.completion_capacity = 512;
        if sc == ServeScenario::Outage {
            spec.outage = vec![(secs(2), millis(900)), (secs(4), millis(900))];
        }
        spec
    }

    /// Which scenario label this spec reports.
    pub fn scenario_label(&self) -> &'static str {
        if !self.outage.is_empty() {
            ServeScenario::Outage.label()
        } else if self.shape.burst_amp > 2.5 {
            ServeScenario::Burst.label()
        } else {
            ServeScenario::Reference.label()
        }
    }
}

/// A submission inside the server pipeline.
#[derive(Clone, Copy, Debug)]
struct Request {
    sub: crate::clients::Submission,
    enqueued_at: SimTime,
    dequeued_at: SimTime,
}

impl Request {
    /// The pipeline's answer to the client about this request.
    fn completion(&self, outcome: Outcome) -> Completion {
        Completion {
            rid: self.sub.rid,
            outcome,
        }
    }
}

/// Shared worker-side control state (one monitor).
struct ControlState {
    coalesce: u32,
    codel: CoDel,
    workers_left: usize,
}

/// Everything a finished run reports.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Client-fleet counters.
    pub counters: ClientCounters,
    /// Retry-budget suppressions.
    pub budget_suppressed: u64,
    /// Pipeline metrics (latency/sojourn histograms, paint counts).
    pub metrics: ServeMetrics,
    /// Breaker trips (Closed→Open).
    pub breaker_trips: u64,
    /// Batches fast-failed while the breaker was open.
    pub fast_failed_batches: u64,
    /// CoDel sheds at dequeue.
    pub codel_drops: u64,
    /// The degradation ladder with its counters, finished.
    pub ladder: Ladder,
    /// Virtual time when the pipeline fully drained.
    pub end: SimTime,
}

fn in_outage(outage: &[(SimDuration, SimDuration)], now: SimTime) -> bool {
    let t = now.as_micros();
    outage.iter().any(|&(off, dur)| {
        let lo = off.as_micros();
        t >= lo && t < lo + dur.as_micros()
    })
}

/// Installs the serve world into `sim` and returns the handle to join
/// for the outcome. Separate from [`run_serve`] so fuzz/chaos callers
/// can drive the sim themselves.
pub fn install(sim: &mut Sim, spec: ServeSpec) -> pcr::JoinHandle<ServeOutcome> {
    sim.fork_root("Serve.Main", Priority::of(6), move |ctx| {
        serve_main(ctx, &spec)
    })
}

/// Builds a configured simulator with the serve world installed.
pub fn build_sim(
    spec: ServeSpec,
    chaos: Option<pcr::ChaosConfig>,
    max_threads: Option<usize>,
) -> (Sim, pcr::JoinHandle<ServeOutcome>) {
    let mut cfg = SimConfig::default()
        .with_seed(spec.seed)
        .with_policy(spec.policy);
    if let Some(chaos) = chaos {
        cfg = cfg.with_chaos(chaos);
    }
    if let Some(n) = max_threads {
        cfg = cfg.with_max_threads(n);
    }
    let mut sim = Sim::new(cfg);
    let handle = install(&mut sim, spec);
    (sim, handle)
}

/// Runs the spec to completion and returns the outcome.
///
/// # Panics
///
/// Panics if the world deadlocks or fails to drain within three arrival
/// windows plus a minute of virtual time.
pub fn run_serve(spec: ServeSpec) -> ServeOutcome {
    let limit = spec.window * 3 + secs(60);
    let (mut sim, handle) = build_sim(spec, None, None);
    let report = sim.run(RunLimit::For(limit));
    assert!(
        matches!(report.reason, StopReason::AllExited),
        "serve world failed to drain: {:?}",
        report.reason
    );
    handle
        .into_result()
        .expect("Serve.Main left no result")
        .expect("Serve.Main panicked")
}

fn serve_main(ctx: &ThreadCtx, spec: &ServeSpec) -> ServeOutcome {
    let ingress = BoundedQueue::new(ctx, "serve.ingress", spec.ingress_capacity, CV_TIMEOUT);
    let xq: BoundedQueue<Vec<Request>> =
        BoundedQueue::new(ctx, "serve.xq", XQ_CAPACITY, CV_TIMEOUT);
    let completions: BoundedQueue<Completion> = BoundedQueue::new(
        ctx,
        "serve.completions",
        spec.completion_capacity,
        CV_TIMEOUT,
    );
    let control = ctx.new_monitor(
        "serve.control",
        ControlState {
            coalesce: degrade::LEVELS[0],
            codel: CoDel::new(CodelSpec::default()),
            workers_left: spec.workers.max(1),
        },
    );
    let breaker_m = ctx.new_monitor("serve.breaker", CircuitBreaker::new());
    let metrics_m = ctx.new_monitor("serve.metrics", ServeMetrics::default());
    let done_m = ctx.new_monitor("serve.done", false);

    let mut workers = Vec::with_capacity(spec.workers.max(1));
    for i in 0..spec.workers.max(1) {
        let ingress = ingress.clone();
        let xq = xq.clone();
        let completions = completions.clone();
        let control = control.clone();
        let breaker_m = breaker_m.clone();
        let mix = spec.mix.clone();
        workers.push(
            ctx.fork_prio(&format!("Serve.Worker{i}"), Priority::of(4), move |ctx| {
                worker_loop(ctx, &mix, &ingress, &xq, &completions, &control, &breaker_m)
            })
            .expect("fork serve worker"),
        );
    }

    let xconn = {
        let xq = xq.clone();
        let completions = completions.clone();
        let breaker_m = breaker_m.clone();
        let metrics_m = metrics_m.clone();
        let outage = spec.outage.clone();
        ctx.fork_prio("Serve.XConn", Priority::of(4), move |ctx| {
            xconn_loop(ctx, &outage, &xq, &completions, &breaker_m, &metrics_m)
        })
        .expect("fork serve xconn")
    };

    let controller = {
        let ingress = ingress.clone();
        let control = control.clone();
        let metrics_m = metrics_m.clone();
        let done_m = done_m.clone();
        let capacity = spec.ingress_capacity;
        let slo_p99 = spec.slo.p99;
        ctx.fork_prio("Serve.Controller", Priority::of(5), move |ctx| {
            controller_loop(
                ctx, capacity, slo_p99, &ingress, &control, &metrics_m, &done_m,
            )
        })
        .expect("fork serve controller")
    };

    // ---- The client fleet, run inline on Serve.Main. ----
    let mut pop = ClientPopulation::new(
        &spec.mix,
        &spec.shape,
        spec.sessions,
        spec.window,
        spec.retry,
        spec.seed,
    );
    let window_secs = spec.window.as_micros() as f64 / 1e6;
    let sessions_per_sec = spec.sessions as f64 / window_secs;
    // One admission bucket per mix row, looked up by class index.
    let mut bucket_of_class: [Option<usize>; SessionClass::ALL.len()] =
        [None; SessionClass::ALL.len()];
    let mut buckets: Vec<TokenBucket> = Vec::with_capacity(spec.mix.len());
    for (i, c) in spec.mix.iter().enumerate() {
        let rate = sessions_per_sec * c.share * c.events_per_session() * ADMISSION_HEADROOM;
        buckets.push(TokenBucket::new(
            rate,
            (rate * ADMISSION_BURST_SECS).max(20.0),
        ));
        bucket_of_class[c.class.index()] = Some(i);
    }

    // Reused across steps, so a quiet step allocates nothing.
    let (mut completed, mut subs, mut admitted) = (Vec::new(), Vec::new(), Vec::new());
    while !pop.done() {
        let now = ctx.now();
        completions.drain(ctx, &mut completed);
        for c in completed.drain(..) {
            pop.on_completion(now, c);
        }
        pop.poll_into(now, &mut subs);
        for sub in subs.drain(..) {
            let slot = bucket_of_class[sub.class.index()].expect("class not in mix");
            if buckets[slot].admit(now) {
                admitted.push(Request {
                    sub,
                    enqueued_at: now,
                    dequeued_at: now,
                });
            } else {
                pop.on_submit_rejected(now, sub.rid, RejectReason::Admission);
            }
        }
        // Enters ingress only when something was admitted.
        ingress.try_put_all(ctx, &mut admitted);
        for req in admitted.drain(..) {
            pop.on_submit_rejected(ctx.now(), req.sub.rid, RejectReason::Backpressure);
        }
        if pop.done() {
            break;
        }
        let now = ctx.now();
        let mut target = pop.next_wakeup().unwrap_or(now + TICK);
        if pop.has_outstanding() {
            // Wake at least every tick to drain completions promptly.
            target = target.min(now + TICK);
        }
        ctx.sleep_precise(target.saturating_since(now).max(micros(50)));
    }

    // ---- Drain and shut down. ----
    ingress.close(ctx);
    // The last worker closes xq; XConn closes completions on exit. Keep
    // draining completions meanwhile so nothing upstream can wedge on a
    // full completion queue.
    while let Some(c) = completions.take(ctx) {
        pop.on_completion(ctx.now(), c);
    }
    for h in workers {
        ctx.join(h).expect("serve worker panicked");
    }
    ctx.join(xconn).expect("serve xconn panicked");
    ctx.enter(&done_m).with_mut(|d| *d = true);
    let mut ladder = ctx.join(controller).expect("serve controller panicked");
    let end = ctx.now();
    ladder.finish(end);
    let (breaker_trips, fast_failed_batches) = ctx
        .enter(&breaker_m)
        .with(|b| (b.trips, b.fast_failed_batches));
    let codel_drops = ctx.enter(&control).with(|c| c.codel.drops);
    let metrics = ctx.enter(&metrics_m).with(|m| m.clone());
    ServeOutcome {
        counters: pop.counters,
        budget_suppressed: pop.budget_suppressed(),
        metrics,
        breaker_trips,
        fast_failed_batches,
        codel_drops,
        ladder,
        end,
    }
}

fn worker_loop(
    ctx: &ThreadCtx,
    mix: &[ClassParams],
    ingress: &BoundedQueue<Request>,
    xq: &BoundedQueue<Vec<Request>>,
    completions: &BoundedQueue<Completion>,
    control: &pcr::Monitor<ControlState>,
    breaker_m: &pcr::Monitor<CircuitBreaker>,
) {
    let mut service_of_class = [SimDuration::ZERO; SessionClass::ALL.len()];
    for c in mix {
        service_of_class[c.class.index()] = c.service;
    }
    let mut shed: Vec<Completion> = Vec::new();
    loop {
        let coalesce = ctx.enter(control).with(|c| c.coalesce).max(1) as usize;
        let mut batch = ingress.take_up_to(ctx, coalesce);
        if batch.is_empty() {
            break; // Closed and drained.
        }
        let now = ctx.now();
        // Filter in place: what is left is the batch handed to XConn.
        let mut head = true;
        batch.retain_mut(|req| {
            if std::mem::take(&mut head) {
                // CoDel watches head-of-queue sojourn only.
                let sojourn = now.saturating_since(req.enqueued_at);
                let verdict = ctx
                    .enter(control)
                    .with_mut(|c| c.codel.on_dequeue(now, sojourn));
                if verdict == CodelVerdict::Drop {
                    shed.push(req.completion(Outcome::ShedCodel));
                    return false;
                }
            }
            if now >= req.sub.deadline {
                // Already blown: imaging it would waste capacity on a
                // paint nobody wants.
                shed.push(req.completion(Outcome::ShedDeadline));
                return false;
            }
            req.dequeued_at = now;
            true
        });
        if !batch.is_empty() {
            if ctx.enter(breaker_m).with_mut(|b| b.allow(now)) {
                let mut cost = SimDuration::ZERO;
                for req in &batch {
                    cost += service_of_class[req.sub.class.index()];
                }
                ctx.work(cost);
                xq.put(ctx, batch);
            } else {
                shed.extend(batch.iter().map(|req| req.completion(Outcome::FastFail)));
            }
        }
        for c in shed.drain(..) {
            completions.put(ctx, c);
        }
    }
    let last = ctx.enter(control).with_mut(|c| {
        c.workers_left -= 1;
        c.workers_left == 0
    });
    if last {
        xq.close(ctx);
    }
}

fn xconn_loop(
    ctx: &ThreadCtx,
    outage: &[(SimDuration, SimDuration)],
    xq: &BoundedQueue<Vec<Request>>,
    completions: &BoundedQueue<Completion>,
    breaker_m: &pcr::Monitor<CircuitBreaker>,
    metrics_m: &pcr::Monitor<ServeMetrics>,
) {
    while let Some(mut batch) = xq.take(ctx) {
        let now = ctx.now();
        if in_outage(outage, now) {
            // The connection is down: a quick failed write, not a paint.
            ctx.work(micros(200));
            let t = ctx.now();
            ctx.enter(breaker_m).with_mut(|b| b.on_failure(t));
            ctx.enter(metrics_m)
                .with_mut(|m| m.outage_failed_batches += 1);
            for req in batch {
                completions.put(ctx, req.completion(Outcome::XFail));
            }
        } else {
            // Last-chance deadline shed: a request that blew its
            // deadline while queued behind this connection is not worth
            // a paint (the client already gave up on it).
            for req in batch.iter().filter(|r| now >= r.sub.deadline) {
                completions.put(ctx, req.completion(Outcome::ShedDeadline));
            }
            batch.retain(|r| now < r.sub.deadline);
            if batch.is_empty() {
                continue;
            }
            ctx.work(XCONN_COSTS.batch_cost(batch.len()));
            let painted_at = ctx.now();
            ctx.enter(breaker_m).with_mut(|b| b.on_success(painted_at));
            ctx.enter(metrics_m).with_mut(|m| {
                m.batches += 1;
                for req in &batch {
                    m.record_paint(req.sub.produced_at, painted_at);
                    m.sojourn
                        .record(req.dequeued_at.saturating_since(req.enqueued_at));
                }
            });
            for req in &batch {
                completions.put(ctx, req.completion(Outcome::Painted));
            }
        }
    }
    completions.close(ctx);
}

fn controller_loop(
    ctx: &ThreadCtx,
    ingress_capacity: usize,
    slo_p99: SimDuration,
    ingress: &BoundedQueue<Request>,
    control: &pcr::Monitor<ControlState>,
    metrics_m: &pcr::Monitor<ServeMetrics>,
    done_m: &pcr::Monitor<bool>,
) -> Ladder {
    let mut ladder = Ladder::new();
    loop {
        ctx.sleep_precise(CONTROL_INTERVAL);
        if ctx.enter(done_m).with(|d| *d) {
            break;
        }
        let depth_frac = ingress.len(ctx) as f64 / ingress_capacity.max(1) as f64;
        let now = ctx.now();
        let window_p99 = ctx.enter(metrics_m).with_mut(|m| {
            let p = m.window.quantile(0.99);
            m.window.reset();
            p
        });
        let coalesce = ladder.on_window(now, window_p99, depth_frac, slo_p99);
        ctx.enter(control).with_mut(|c| c.coalesce = coalesce);
    }
    ladder
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(seed: u64) -> ServeSpec {
        let mut spec = ServeSpec::reference(600, seed);
        spec.window = secs(5);
        spec
    }

    fn outcome_fingerprint(o: &ServeOutcome) -> String {
        format!(
            "{:?}|{}|{}|{}|{}|{}|{}|{:?}|{}",
            o.counters,
            o.budget_suppressed,
            o.metrics.painted,
            o.metrics.batches,
            o.breaker_trips,
            o.fast_failed_batches,
            o.codel_drops,
            o.metrics.latency.rows(),
            o.end.as_micros(),
        )
    }

    #[test]
    fn reference_cell_drains_and_paints_most_requests() {
        let o = run_serve(small_spec(0xA5));
        let c = &o.counters;
        assert!(c.offered > 1000, "offered {}", c.offered);
        assert_eq!(c.resolved(), c.offered);
        // The reference cell has headroom: the vast majority paints.
        assert!(
            c.painted as f64 >= 0.97 * c.offered as f64,
            "painted {} of {}",
            c.painted,
            c.offered
        );
        assert!(o.metrics.latency.count() > 0);
        assert!(o.end.as_micros() > secs(5).as_micros());
    }

    #[test]
    fn identical_specs_are_byte_deterministic() {
        let a = run_serve(small_spec(0xDE7));
        let b = run_serve(small_spec(0xDE7));
        assert_eq!(outcome_fingerprint(&a), outcome_fingerprint(&b));
        let c = run_serve(small_spec(0xDE8));
        assert_ne!(outcome_fingerprint(&a), outcome_fingerprint(&c));
    }

    #[test]
    fn outage_trips_breaker_and_budget_bounds_amplification() {
        let mut spec = ServeSpec::scenario(ServeScenario::Outage, 600, 0xA5);
        spec.window = secs(6);
        spec.outage = vec![(secs(2), millis(900)), (secs(4), millis(900))];
        let o = run_serve(spec);
        assert!(o.breaker_trips >= 1, "breaker never tripped");
        assert!(
            o.fast_failed_batches + o.counters.fast_fail > 0,
            "breaker never fast-failed anything"
        );
        let amp = o.counters.amplification();
        assert!(amp < 2.0, "retry amplification {amp} out of bounds");
        assert_eq!(o.counters.resolved(), o.counters.offered);
    }

    #[test]
    fn unbudgeted_retries_amplify_more() {
        let mk = |enabled| {
            let mut spec = ServeSpec::scenario(ServeScenario::Outage, 600, 0xA5);
            spec.window = secs(6);
            spec.outage = vec![(secs(2), millis(900)), (secs(4), millis(900))];
            spec.retry.budget_enabled = enabled;
            run_serve(spec)
        };
        let with_budget = mk(true);
        let without = mk(false);
        assert!(
            without.counters.amplification() > with_budget.counters.amplification(),
            "budget {} vs unbudgeted {}",
            with_budget.counters.amplification(),
            without.counters.amplification()
        );
    }

    #[test]
    fn burst_scenario_sheds_rather_than_stalls() {
        // Reference-scale arrival (600 sessions/s) so the bursts really
        // exceed capacity.
        let mut spec = ServeSpec::scenario(ServeScenario::Burst, 3000, 0x17);
        spec.window = secs(5);
        let o = run_serve(spec);
        let c = &o.counters;
        assert_eq!(c.resolved(), c.offered);
        // Overload must show up as *controlled* shedding somewhere.
        let shed = c.rejected_admission
            + c.rejected_backpressure
            + c.shed_deadline
            + c.timed_out
            + o.codel_drops;
        assert!(shed > 0, "no shedding under burst overload");
        // And the ladder must have spent the knob before latency.
        assert!(o.ladder.degrade_steps > 0, "ladder never degraded");
        // Late paints stay rare: blown requests are shed, not painted.
        assert!(
            c.late_paint * 20 <= c.painted.max(1),
            "late paints {} vs painted {}",
            c.late_paint,
            c.painted
        );
    }
}
