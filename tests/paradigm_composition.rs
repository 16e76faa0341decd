//! Cross-crate composition: several paradigms cooperating in one
//! simulated system, and the same catalogue working on real threads.

use threadstudy::paradigms::oneshot::delayed_fork;
use threadstudy::paradigms::pump::{spawn_pump, BoundedQueue};
use threadstudy::paradigms::rejuvenate::supervise;
use threadstudy::paradigms::serializer::MbQueue;
use threadstudy::paradigms::sleeper::Periodical;
use threadstudy::pcr::{millis, secs, Priority, RunLimit, Sim, SimConfig};

#[test]
fn a_small_interactive_system_from_paradigm_parts() {
    // Sleeper (ticker) -> pump (enricher) -> serializer (applier), with
    // a one-shot watchdog and a supervised flaky service on the side.
    let mut sim = Sim::new(SimConfig::default());
    let raw: BoundedQueue<u32> = BoundedQueue::new_in_sim(&mut sim, "raw", 32, None);
    let cooked: BoundedQueue<String> = BoundedQueue::new_in_sim(&mut sim, "cooked", 32, None);
    let applied = sim.monitor("applied", Vec::<String>::new());

    let raw_producer = raw.clone();
    let (cooked_in, cooked_out) = (cooked.clone(), cooked);
    let applied2 = applied.clone();
    let h = sim.fork_root("main", Priority::of(5), move |ctx| {
        // Sleeper: emits a tick every 100ms (quantized like PCR).
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let c2 = std::sync::Arc::clone(&counter);
        let rp = raw_producer.clone();
        let ticker = Periodical::spawn(ctx, "ticker", Priority::of(4), millis(90), move |ctx| {
            let n = c2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            rp.put(ctx, n);
        });
        // Pump: enriches ticks into strings.
        spawn_pump(
            ctx,
            "enricher",
            Priority::of(4),
            raw_producer,
            cooked_in,
            millis(1),
            |n| Some(format!("tick-{n}")),
        );
        // Serializer: applies updates in order.
        let mb = MbQueue::new(ctx, "applier", Priority::of(4), 32);
        let ap = applied2.clone();
        let feeder = ctx
            .fork("feeder", move |ctx| {
                for _ in 0..8 {
                    let Some(s) = cooked_out.take(ctx) else { break };
                    let ap = ap.clone();
                    mb.enqueue(ctx, millis(1), move |ctx| {
                        let mut g = ctx.enter(&ap);
                        g.with_mut(|v| v.push(s));
                    });
                }
                mb.stop(ctx);
            })
            .unwrap();
        // One-shot: a watchdog that must NOT fire (we finish in time).
        let watchdog = delayed_fork(ctx, "watchdog", Priority::of(6), secs(30), |_ctx| {
            panic!("system hung");
        });
        // Task rejuvenation: a flaky service succeeds on attempt 2.
        let report = supervise(ctx, "flaky", Priority::of(3), 3, millis(10), |attempt| {
            move |ctx: &threadstudy::pcr::ThreadCtx| {
                ctx.work(millis(2));
                if attempt == 0 {
                    panic!("first attempt always fails");
                }
            }
        });
        assert_eq!(report.starts, 2);
        ctx.join(feeder).unwrap();
        // The serializer drains asynchronously after stop(); wait for it.
        for _ in 0..200 {
            let done = {
                let g = ctx.enter(&applied2);
                g.with(|v| v.len() >= 8)
            };
            if done {
                break;
            }
            ctx.sleep_precise(millis(10));
        }
        assert!(watchdog.cancel(ctx));
        ticker.cancel(ctx);
        let g = ctx.enter(&applied2);
        g.with(|v| v.clone())
    });
    let r = sim.run(RunLimit::For(secs(20)));
    assert!(!r.deadlocked());
    // The pump stays blocked in its take with nobody left to feed it,
    // which alone would end the run as a deadlock. It ends at the time
    // limit because the kernel remembers the deadline of the cancelled
    // watchdog's 30 s `CvTimeout` (the latest it has cancelled) and an
    // idle world idles on to that, so to the limit, before it is over.
    // The main thread's result must be complete.
    let applied = h.into_result().expect("main thread finished").unwrap();
    assert_eq!(applied.len(), 8);
    for (i, s) in applied.iter().enumerate() {
        assert_eq!(s, &format!("tick-{i}"), "order violated at {i}");
    }
    // One panic from the flaky service's first attempt; nothing else.
    assert_eq!(sim.stats().panics, 1);
}

#[test]
fn the_same_catalogue_works_on_real_threads() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use threadstudy::mesa::RealCtx;
    use threadstudy::paradigms::defer::defer;
    use threadstudy::pcr::{Guard, Runtime, SimDuration};

    // Deferred work feeding a serializer through a bounded queue, with
    // a periodical and a supervised service: the imports at the top of
    // this file, handed a `RealCtx` instead of a simulated thread.
    let ctx = &RealCtx::root();
    let q: BoundedQueue<u32, RealCtx> = BoundedQueue::new(ctx, "q", 16, None);
    let mb = MbQueue::new(ctx, "applier", Priority::of(4), 16);
    let total = ctx.new_monitor("total", (0u32, 0u32)); // (sum, applied)

    for i in 0..10 {
        let q = q.clone();
        defer(ctx, &format!("job{i}"), move |ctx: &RealCtx| {
            q.put(ctx, i);
        })
        .unwrap();
    }
    let (mb2, total2, q2) = (mb.clone(), total.clone(), q.clone());
    let feeder = ctx
        .fork("feeder", move |ctx: &RealCtx| {
            for _ in 0..10 {
                let v = q2.take(ctx).unwrap();
                let t = total2.clone();
                mb2.enqueue(ctx, SimDuration::ZERO, move |ctx: &RealCtx| {
                    ctx.enter(&t)
                        .with_mut(|(sum, n)| (*sum, *n) = (*sum + v, *n + 1));
                });
            }
        })
        .unwrap();
    let ticks = Arc::new(AtomicU32::new(0));
    let t2 = Arc::clone(&ticks);
    let p = Periodical::spawn(
        ctx,
        "tick",
        Priority::of(4),
        millis(1),
        move |_: &RealCtx| {
            t2.fetch_add(1, Ordering::Relaxed);
        },
    );
    let report = supervise(ctx, "svc", Priority::of(3), 2, millis(1), |attempt| {
        move |_: &RealCtx| assert!(attempt > 0, "flaky")
    });
    ctx.join(feeder).unwrap();
    mb.stop(ctx);
    // The serializer drains asynchronously after stop(), and the ticker
    // runs on its own clock: wait for the counts, not for a duration.
    while ctx.enter(&total).with(|(_, n)| *n) < 10 || ticks.load(Ordering::Relaxed) < 2 {
        ctx.sleep(millis(1));
    }
    p.cancel(ctx);
    assert_eq!(ctx.enter(&total).with(|(sum, _)| *sum), 45);
    assert_eq!(report.starts, 2);
}

#[test]
fn full_cedar_world_survives_immediate_notify_mode() {
    // Cross-cutting: run the whole Cedar keyboard world under the
    // *unfixed* §6.1 notify mode and observe spurious conflicts appear
    // in a realistic system, not just a microbenchmark.
    use threadstudy::pcr::{NotifyMode, SystemDaemonConfig};
    let cfg = SimConfig::default()
        .with_seed(11)
        .with_notify_mode(NotifyMode::Immediate)
        .with_system_daemon(SystemDaemonConfig::default());
    let mut sim = Sim::new(cfg);
    threadstudy::workloads::cedar::install(&mut sim, threadstudy::workloads::Benchmark::Keyboard);
    let r = sim.run(RunLimit::For(secs(10)));
    assert!(!r.deadlocked());
    assert!(
        sim.stats().spurious_conflicts > 0,
        "immediate notify should waste dispatches somewhere in a full world"
    );
    // And the fixed mode wastes none.
    let cfg = SimConfig::default()
        .with_seed(11)
        .with_system_daemon(SystemDaemonConfig::default());
    let mut sim = Sim::new(cfg);
    threadstudy::workloads::cedar::install(&mut sim, threadstudy::workloads::Benchmark::Keyboard);
    let r = sim.run(RunLimit::For(secs(10)));
    assert!(!r.deadlocked());
    assert_eq!(sim.stats().spurious_conflicts, 0);
}

#[test]
fn concurrency_exploiters_gain_on_the_mp_scheduler() {
    // §4.7: the very paradigm the uniprocessor could not reward. The
    // unchanged paradigms::exploit helpers, run on four CPUs, now show real
    // virtual-time speedup.
    use threadstudy::paradigms::exploit::parallel_map;
    let run = |cpus: usize| {
        let mut sim = Sim::with_cpus(SimConfig::default(), cpus);
        let h = sim.fork_root("driver", Priority::of(5), |ctx| {
            let t0 = ctx.now();
            let out = parallel_map(ctx, "sq", (0..8).collect(), millis(20), |_ctx, x: u32| {
                x * x
            });
            (out, ctx.now().since(t0))
        });
        sim.run(RunLimit::For(secs(60)));
        h.into_result().unwrap().unwrap()
    };
    let (out1, t1) = run(1);
    let (out4, t4) = run(4);
    assert_eq!(out1, out4);
    assert_eq!(out4, (0..8).map(|x| x * x).collect::<Vec<_>>());
    assert!(
        t4.as_micros() * 3 < t1.as_micros(),
        "4 CPUs ({t4}) should be well under a third of 1 CPU ({t1})"
    );
}
