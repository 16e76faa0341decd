//! Regression guard for the scheduler hot path.
//!
//! Two worlds that live almost entirely inside the scheduler's fast
//! paths — the ready-queue bitmask, the CV queues, and the masked
//! `emit` — reported as simulated events per wall-clock second (the same
//! metric `repro bench` tracks), plus raw arm/fire churn over the timer
//! wheel against the retired `BinaryHeap` baseline. Plain `main()`
//! harness, like the other benches in this directory.
//!
//! Each target also asserts a *floor* chosen three orders of magnitude
//! below typical rates on any development machine: the assertion is a
//! smoke check that only trips on a catastrophic regression (an
//! accidentally quadratic scan, a deadlock), never on CI noise.
//!
//! The exception is the handoff: one `yield_now` round trip (body →
//! scheduler → body) must stay under a microsecond. A coroutine switch
//! costs ~0.15 µs with the scheduler's work included; the OS-thread baton
//! it replaced cost ~5.6 µs, so the floor trips on a kernel that went
//! back to parking threads, not on a busy runner.
//!
//! The exporters have ceilings of the same kind, on a recorded
//! Cedar/Keyboard stream: `write_jsonl` under 400 ns per event and
//! `write_chrome` under 800 ns per input event. Writing lines directly
//! costs about 70 and 190 ns; building a `Json` tree per event first cost
//! 802 and 1 813 ns, so a slide back to tree-building trips them.

use std::time::Instant;

use pcr::{millis, secs, Priority, RunLimit, Sim, SimConfig};

/// Arm/fire churn over a timer queue harness: keep 256 jittered
/// deadlines pending, then repeatedly fire the earliest and arm a
/// replacement — the steady-state pattern the sim's CV timeouts and
/// timeslices produce. Shared by the wheel and heap via an identical
/// inherent-method surface.
macro_rules! timer_churn_ops_per_sec {
    ($name:expr, $bench:expr, $ops:expr) => {{
        let mut b = $bench;
        let mut rng = pcr::SplitMix64::new(0x7133_D00D);
        let mut now = 0u64;
        for _ in 0..256 {
            b.arm(now + 1 + rng.next_below(100_000));
        }
        let t0 = Instant::now();
        for _ in 0..$ops {
            let due = b.next_deadline_us().expect("queue stays populated");
            assert!(b.fire(due), "armed timer must fire at its deadline");
            now = due;
            b.arm(now + 1 + rng.next_below(100_000));
        }
        let rate = $ops as f64 / t0.elapsed().as_secs_f64();
        println!("{:40} {rate:>12.0} arm+fire/sec", $name);
        (b, rate)
    }};
}

/// Runs `world` once as warmup and `reps` more times, printing and
/// returning the best observed events/sec. `world` returns the run's
/// [`pcr::SimStats::event_volume`].
fn events_per_sec(name: &str, reps: u32, mut world: impl FnMut() -> u64) -> f64 {
    world(); // Warmup.
    let mut best = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        let events = world();
        let rate = events as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    println!("{name:40} {best:>12.0} events/sec  (best of {reps})");
    best
}

/// Best-of-`reps` wall nanoseconds per `yield_now` for a lone thread: the
/// handoff out to the scheduler and back, with nothing else to run.
fn yield_round_trip_ns(reps: u32) -> f64 {
    const YIELDS: u32 = 200_000;
    let mut best = f64::INFINITY;
    for _ in 0..=reps {
        let mut sim = Sim::new(SimConfig::default());
        let _ = sim.fork_root("yielder", Priority::of(4), |ctx| {
            for _ in 0..YIELDS {
                ctx.yield_now();
            }
        });
        let start = Instant::now();
        sim.run(RunLimit::ToCompletion);
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(YIELDS));
    }
    println!(
        "{:40} {best:>12.0} ns/round trip  (best of {reps})",
        "hotpath_yield_handoff"
    );
    best
}

/// Best-of-`reps` wall nanoseconds per input event for `write_jsonl` and
/// `write_chrome` over one recorded Cedar/Keyboard stream (10 virtual
/// seconds), each writing to memory.
fn export_ns_per_event(reps: u32) -> [f64; 2] {
    let (sys, bench) = (workloads::System::Cedar, workloads::Benchmark::Keyboard);
    let mut sim = workloads::runner::build(sys, bench, 0xBEEF);
    sim.set_sink(Box::new(pcr::VecSink::default()));
    sim.run(RunLimit::For(secs(10)));
    let labels = trace::TraceLabels::from_sim(&sim);
    let sink = trace::take_collector::<pcr::VecSink>(&mut sim);
    let events = sink.expect("the VecSink just installed").events;
    let jsonl: &dyn Fn(&mut Vec<u8>) = &|out| drop(trace::write_jsonl(&events, out));
    let chrome: &dyn Fn(&mut Vec<u8>) = &|out| drop(trace::write_chrome(&events, &labels, out));
    [
        ("hotpath_write_jsonl", jsonl),
        ("hotpath_write_chrome", chrome),
    ]
    .map(|(name, write)| {
        let mut best = f64::INFINITY;
        for _ in 0..=reps {
            let mut out = Vec::new();
            let start = Instant::now();
            write(&mut out);
            best = best.min(start.elapsed().as_nanos() as f64 / events.len() as f64);
            assert!(!out.is_empty());
        }
        println!("{name:40} {best:>12.0} ns/event  (best of {reps})");
        best
    })
}

/// Two threads exchanging NOTIFY/WAIT as fast as virtual time allows:
/// the CV-queue and ready-queue hot path with zero fork traffic.
fn notify_wait_pingpong() -> u64 {
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.monitor("m", 0u32);
    let cv = sim.condition(&m, "cv", Some(millis(50)));
    let (m2, cv2) = (m.clone(), cv.clone());
    let _ = sim.fork_root("a", Priority::of(4), move |ctx| {
        let mut g = ctx.enter(&m2);
        loop {
            g.with_mut(|v| *v = v.wrapping_add(1));
            g.notify(&cv2);
            let _ = g.wait(&cv2);
        }
    });
    let _ = sim.fork_root("b", Priority::of(4), move |ctx| {
        let mut g = ctx.enter(&m);
        loop {
            g.with_mut(|v| *v = v.wrapping_add(1));
            g.notify(&cv);
            let _ = g.wait(&cv);
        }
    });
    sim.run(RunLimit::For(secs(5)));
    sim.stats().event_volume()
}

/// A forker spinning up batches of short-lived children and joining
/// them: the fork/exit/join and timeslice hot path, with threads
/// entering and leaving the ready queues at several priorities.
fn fork_join_storm() -> u64 {
    let mut sim = Sim::new(SimConfig::default());
    let _ = sim.fork_root("forker", Priority::of(5), |ctx| loop {
        let batch: Vec<_> = (0..8)
            .map(|i| {
                ctx.fork_with(
                    &format!("w{i}"),
                    pcr::ForkOpts::default().priority(Priority::of(3 + (i % 3) as u8)),
                    move |ctx| ctx.work(millis(1)),
                )
                .unwrap()
            })
            .collect();
        for h in batch {
            ctx.join(h).unwrap();
        }
    });
    sim.run(RunLimit::For(secs(5)));
    let alloc = sim.alloc_counters();
    // The pool acceptance check: after thousands of forks, the stack
    // pool must be recycling, not growing.
    assert!(
        alloc.os_thread_reuses > alloc.os_thread_spawns,
        "fork storm should reuse pooled stacks ({alloc:?})"
    );
    sim.stats().event_volume()
}

fn main() {
    let handoff_ns = yield_round_trip_ns(3);
    let pingpong = events_per_sec("hotpath_notify_wait_pingpong_5s", 3, notify_wait_pingpong);
    let storm = events_per_sec("hotpath_fork_join_storm_5s", 3, fork_join_storm);
    let [jsonl_ns, chrome_ns] = export_ns_per_event(3);

    const TIMER_OPS: u64 = 200_000;
    let (wheel, wheel_rate) = timer_churn_ops_per_sec!(
        "hotpath_timer_wheel_churn",
        pcr::microbench::WheelBench::new(),
        TIMER_OPS
    );
    let (_, heap_rate) = timer_churn_ops_per_sec!(
        "hotpath_timer_heap_churn",
        pcr::microbench::HeapBench::new(),
        TIMER_OPS
    );
    println!(
        "{:40} {:>12.2}x vs heap baseline",
        "hotpath_timer_wheel_ratio",
        wheel_rate / heap_rate
    );
    let (allocs, reuses) = wheel.alloc_stats();
    assert!(
        reuses > allocs,
        "timer churn should be served from the wheel's free list ({allocs} allocs, {reuses} reuses)"
    );

    const FLOOR_EVENTS_PER_SEC: f64 = 1_000.0;
    const FLOOR_TIMER_OPS_PER_SEC: f64 = 50_000.0;
    const CEILING_HANDOFF_NS: f64 = 1_000.0;
    assert!(
        handoff_ns < CEILING_HANDOFF_NS,
        "a yield_now round trip took {handoff_ns:.0} ns, over the {CEILING_HANDOFF_NS} ns ceiling"
    );
    const CEILING_JSONL_NS: f64 = 400.0;
    const CEILING_CHROME_NS: f64 = 800.0;
    assert!(
        jsonl_ns < CEILING_JSONL_NS,
        "write_jsonl took {jsonl_ns:.0} ns per event, over the {CEILING_JSONL_NS} ns ceiling"
    );
    assert!(
        chrome_ns < CEILING_CHROME_NS,
        "write_chrome took {chrome_ns:.0} ns per event, over the {CEILING_CHROME_NS} ns ceiling"
    );
    assert!(
        pingpong > FLOOR_EVENTS_PER_SEC,
        "notify/wait ping-pong fell below {FLOOR_EVENTS_PER_SEC} events/sec ({pingpong:.0})"
    );
    assert!(
        storm > FLOOR_EVENTS_PER_SEC,
        "fork/join storm fell below {FLOOR_EVENTS_PER_SEC} events/sec ({storm:.0})"
    );
    assert!(
        wheel_rate > FLOOR_TIMER_OPS_PER_SEC,
        "timer wheel churn fell below {FLOOR_TIMER_OPS_PER_SEC} arm+fire/sec ({wheel_rate:.0})"
    );
    println!(
        "hot-path floors ok (> {FLOOR_EVENTS_PER_SEC} events/sec, wheel > {FLOOR_TIMER_OPS_PER_SEC} arm+fire/sec, handoff < {CEILING_HANDOFF_NS} ns, write_jsonl < {CEILING_JSONL_NS} ns, write_chrome < {CEILING_CHROME_NS} ns)"
    );
}
