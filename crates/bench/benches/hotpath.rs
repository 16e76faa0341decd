//! Regression guard for the scheduler hot path.
//!
//! A fork/join storm that lives almost entirely inside the scheduler's
//! fast paths — the ready-queue bitmask and the masked `emit` — reported
//! as simulated events per wall-clock second (the same metric `repro
//! bench` tracks), plus raw arm/fire churn over the timer wheel. Plain
//! `main()` harness; the workspace's only bench target.
//!
//! Both assert a *floor* chosen three orders of magnitude below typical
//! rates on any development machine: the assertion is a smoke check that
//! only trips on a catastrophic regression (an accidentally quadratic
//! scan, a deadlock), never on CI noise.
//!
//! The exceptions are the two ways through the kernel. One `yield_now`
//! (body → scheduler → body) must stay under a microsecond: a coroutine
//! switch costs ~0.15 µs with the scheduler's work included, the OS-thread
//! baton it replaced ~5.6 µs, so the ceiling trips on a kernel that went
//! back to parking threads, not on a busy runner. One uncontended monitor
//! enter + exit, which never leaves the CPU, must stay under 150 ns: the
//! pair costs ~80 ns served on the caller's stack, ~260 as two round trips.
//!
//! A timed WAIT that a NOTIFY ends has one too: a NOTIFY + WAIT round on
//! a CV with a 50 ms timeout must stay under 600 ns. It costs ~150 ns with
//! the ended wait's timeout cancelled on the spot; left in the wheel until
//! its deadline, the dead timeouts of one tick share a slot that every pop
//! rescans, and the round cost ~2 000 ns.
//!
//! The exporters have ceilings of the same kind, on a recorded
//! Cedar/Keyboard stream: `write_jsonl` under 400 ns per event and
//! `write_chrome` under 800 ns per input event. Writing lines directly
//! costs about 70 and 190 ns; building a `Json` tree per event first cost
//! 802 and 1 813 ns, so a slide back to tree-building trips them. Reading
//! them back has two more: `parse_jsonl` under 450 ns per line (~140 with
//! numbers taken as they are scanned, 617 when it built a tree per line)
//! and `Json::parse` of the Chrome document over 80 MB/s (~250 with each
//! object sized by its sibling; a `Vec` regrown per object read ~200).
//!
//! And a world's lifecycle has one: building the Cedar/Keyboard world
//! (~40 threads, some 3 000 library monitors) and dropping it unrun must
//! stay under 0.65 ms. It costs 0.4-0.5 ms with stacks taken from and
//! left in the OS thread's pool and each monitor name stored once;
//! mapping and unmapping every stack and storing each name twice cost
//! 0.84 ms.

use std::time::Instant;

use pcr::{micros, millis, secs, Monitor, Priority, RunLimit, Sim, SimConfig, SimTime, ThreadCtx};

/// Arm/fire churn over the timer wheel: keep 256 jittered deadlines
/// pending, then repeatedly fire the earliest and arm a replacement — the
/// steady-state pattern the sim's CV timeouts and timeslices produce.
fn timer_churn_ops_per_sec(ops: u64) -> (pcr::Wheel<()>, f64) {
    let mut wheel = pcr::Wheel::new();
    let mut rng = pcr::SplitMix64::new(0x7133_D00D);
    let mut arm = |wheel: &mut pcr::Wheel<()>, now: SimTime| {
        wheel.schedule(now + micros(1 + rng.next_below(100_000)), ());
    };
    for _ in 0..256 {
        arm(&mut wheel, SimTime::ZERO);
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        let due = wheel.next_deadline().expect("queue stays populated");
        let fired = wheel.pop_due(due);
        assert!(fired.is_some(), "armed timer must fire at its deadline");
        arm(&mut wheel, due);
    }
    let rate = ops as f64 / t0.elapsed().as_secs_f64();
    println!("hotpath_timer_wheel_churn {rate:>27.0} arm+fire/sec");
    (wheel, rate)
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

/// Best-of-`reps` wall nanoseconds per `op` for a lone thread with
/// nothing else to run: `yield_now` is the handoff out to the scheduler
/// and back, an enter + exit pair the kernel call that stays on the CPU.
fn lone_thread_ns(name: &str, reps: u32, op: fn(&ThreadCtx, &Monitor<()>)) -> f64 {
    const OPS: u32 = 200_000;
    let mut best = f64::INFINITY;
    for _ in 0..=reps {
        let mut sim = Sim::new(SimConfig::default());
        let m = sim.monitor("m", ());
        let _ = sim.fork_root("probe", Priority::of(4), move |ctx| {
            for _ in 0..OPS {
                op(ctx, &m);
            }
        });
        let start = Instant::now();
        sim.run(RunLimit::ToCompletion);
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(OPS));
    }
    println!("{name:40} {best:>12.0} ns/op  (best of {reps})");
    best
}

/// Best-of-`reps` wall nanoseconds per NOTIFY + WAIT round of
/// [`pingpong_world`] over 400 virtual ms, some 9 800 rounds: every wait
/// arms a timeout and every one is ended by the other thread's NOTIFY.
fn notify_wait_ns(reps: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..=reps {
        let mut sim = pingpong_world();
        let start = Instant::now();
        sim.run(RunLimit::For(millis(400)));
        best = best.min(start.elapsed().as_nanos() as f64 / sim.stats().cv_waits as f64);
    }
    println!(
        "{:40} {best:>12.0} ns/round  (best of {reps})",
        "hotpath_notify_wait"
    );
    best
}

/// Best-of-`reps` figures for the text path over one recorded
/// Cedar/Keyboard stream (10 virtual seconds), all in memory: wall
/// nanoseconds per input event for `write_jsonl` and `write_chrome`, then
/// for reading them back, nanoseconds per line for `parse_jsonl` and
/// megabytes per second for `Json::parse` of the Chrome document.
fn text_path(reps: u32) -> [f64; 4] {
    let (sys, bench) = (workloads::System::Cedar, workloads::Benchmark::Keyboard);
    let mut sim = workloads::runner::build(sys, bench, 0xBEEF);
    sim.set_sink(Box::new(pcr::VecSink::default()));
    sim.run(RunLimit::For(secs(10)));
    let labels = trace::TraceLabels::from_sim(&sim);
    let sink = trace::take_collector::<pcr::VecSink>(&mut sim);
    let events = sink.expect("the VecSink just installed").events;
    let jsonl: &dyn Fn(&mut Vec<u8>) = &|out| drop(trace::write_jsonl(&events, out));
    let chrome: &dyn Fn(&mut Vec<u8>) = &|out| drop(trace::write_chrome(&events, &labels, out));
    let [(jsonl_ns, jsonl), (chrome_ns, chrome)] = [
        ("hotpath_write_jsonl", jsonl),
        ("hotpath_write_chrome", chrome),
    ]
    .map(|(name, write)| {
        let mut best = f64::INFINITY;
        let mut text = Vec::new();
        for _ in 0..=reps {
            let mut out = Vec::new();
            let start = Instant::now();
            write(&mut out);
            best = best.min(start.elapsed().as_nanos() as f64 / events.len() as f64);
            assert!(!out.is_empty());
            text = out;
        }
        println!("{name:40} {best:>12.0} ns/event  (best of {reps})");
        (best, String::from_utf8(text).expect("JSON is UTF-8"))
    });
    let (mut parse_ns, mut parse_mb_s) = (f64::INFINITY, 0.0f64);
    for _ in 0..=reps {
        let start = Instant::now();
        let lines = trace::parse_jsonl(&jsonl).expect("what write_jsonl wrote");
        parse_ns = parse_ns.min(start.elapsed().as_nanos() as f64 / lines.len() as f64);
        assert_eq!(lines.len(), events.len());
        let start = Instant::now();
        let doc = trace::Json::parse(&chrome).expect("what write_chrome wrote");
        parse_mb_s = parse_mb_s.max(chrome.len() as f64 / 1e6 / start.elapsed().as_secs_f64());
        assert!(doc.get("traceEvents").is_some());
    }
    println!(
        "{:40} {parse_ns:>12.0} ns/line  (best of {reps})",
        "hotpath_parse_jsonl"
    );
    println!(
        "{:40} {parse_mb_s:>12.0} MB/s  (best of {reps})",
        "hotpath_json_parse_chrome"
    );
    [jsonl_ns, chrome_ns, parse_ns, parse_mb_s]
}

/// Best-of-`reps` wall milliseconds to build the Cedar/Keyboard world and
/// drop it, after one cycle that fills the stack pool.
fn world_cycle_ms(reps: u32) -> f64 {
    let (sys, bench) = (workloads::System::Cedar, workloads::Benchmark::Keyboard);
    let mut best = f64::INFINITY;
    for _ in 0..=reps {
        let start = Instant::now();
        drop(workloads::runner::build(sys, bench, 0xBEEF));
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    println!(
        "{:40} {best:>12.3} ms  (best of {reps})",
        "hotpath_world_cycle"
    );
    best
}

/// Two threads exchanging NOTIFY/WAIT on a CV with a 50 ms timeout as fast
/// as virtual time allows: the CV-queue and ready-queue hot path with zero
/// fork traffic, timed per round by [`notify_wait_ns`].
fn pingpong_world() -> Sim {
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.monitor("m", 0u32);
    let cv = sim.condition(&m, "cv", Some(millis(50)));
    for name in ["a", "b"] {
        let (m, cv) = (m.clone(), cv.clone());
        let _ = sim.fork_root(name, Priority::of(4), move |ctx| {
            let mut g = ctx.enter(&m);
            loop {
                g.with_mut(|v| *v = v.wrapping_add(1));
                g.notify(&cv);
                let _ = g.wait(&cv);
            }
        });
    }
    sim
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
    let handoff_ns = lone_thread_ns("hotpath_yield_handoff", 3, |ctx, _| ctx.yield_now());
    let pair_ns = lone_thread_ns("hotpath_monitor_pair", 3, |ctx, m| drop(ctx.enter(m)));
    let round_ns = notify_wait_ns(5);
    let storm = events_per_sec("hotpath_fork_join_storm_5s", 3, fork_join_storm);
    let [jsonl_ns, chrome_ns, parse_ns, parse_mb_s] = text_path(3);
    let cycle_ms = world_cycle_ms(20);

    const TIMER_OPS: u64 = 200_000;
    let (wheel, wheel_rate) = timer_churn_ops_per_sec(TIMER_OPS);
    let (allocs, reuses) = wheel.alloc_stats();
    assert!(
        reuses > allocs,
        "timer churn should be served from the wheel's free list ({allocs} allocs, {reuses} reuses)"
    );

    const FLOOR_EVENTS_PER_SEC: f64 = 1_000.0;
    const FLOOR_TIMER_OPS_PER_SEC: f64 = 50_000.0;
    const CEILING_HANDOFF_NS: f64 = 1_000.0;
    const CEILING_PAIR_NS: f64 = 150.0;
    const CEILING_NOTIFY_WAIT_NS: f64 = 600.0;
    const CEILING_JSONL_NS: f64 = 400.0;
    const CEILING_CHROME_NS: f64 = 800.0;
    const CEILING_JSONL_PARSE_NS: f64 = 450.0;
    const FLOOR_JSON_PARSE_MB_S: f64 = 80.0;
    const CEILING_WORLD_CYCLE_MS: f64 = 0.65;
    let (cycle_ns, cycle_ceiling_ns) = (cycle_ms * 1e6, CEILING_WORLD_CYCLE_MS * 1e6);
    for (what, ns, ceiling) in [
        ("a yield_now round trip", handoff_ns, CEILING_HANDOFF_NS),
        ("an uncontended enter + exit", pair_ns, CEILING_PAIR_NS),
        ("a NOTIFY + WAIT round", round_ns, CEILING_NOTIFY_WAIT_NS),
        ("write_jsonl, per event,", jsonl_ns, CEILING_JSONL_NS),
        ("write_chrome, per event,", chrome_ns, CEILING_CHROME_NS),
        ("parse_jsonl, per line,", parse_ns, CEILING_JSONL_PARSE_NS),
        ("a world's build + drop", cycle_ns, cycle_ceiling_ns),
    ] {
        assert!(
            ns < ceiling,
            "{what} took {ns:.0} ns, over the {ceiling} ns ceiling"
        );
    }
    for (what, rate, floor) in [
        ("fork/join storm events", storm, FLOOR_EVENTS_PER_SEC),
        ("timer wheel arm+fire", wheel_rate, FLOOR_TIMER_OPS_PER_SEC),
    ] {
        assert!(rate > floor, "{what}/sec fell below {floor} ({rate:.0})");
    }
    assert!(
        parse_mb_s > FLOOR_JSON_PARSE_MB_S,
        "Json::parse read {parse_mb_s:.0} MB/s, under the {FLOOR_JSON_PARSE_MB_S} MB/s floor"
    );
    println!(
        "hot-path floors ok (> {FLOOR_EVENTS_PER_SEC} events/sec, wheel > {FLOOR_TIMER_OPS_PER_SEC} arm+fire/sec, handoff < {CEILING_HANDOFF_NS} ns, enter + exit < {CEILING_PAIR_NS} ns, NOTIFY + WAIT < {CEILING_NOTIFY_WAIT_NS} ns, write_jsonl < {CEILING_JSONL_NS} ns, write_chrome < {CEILING_CHROME_NS} ns, parse_jsonl < {CEILING_JSONL_PARSE_NS} ns, Json::parse > {FLOOR_JSON_PARSE_MB_S} MB/s, world cycle < {CEILING_WORLD_CYCLE_MS} ms)"
    );
}
