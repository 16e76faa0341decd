//! `pcr::Runtime` conformance: the §2 rules and the paradigms built on
//! them, each written once against `C: Runtime` and instantiated on
//! both backends — `ThreadCtx` inside a `Sim`, on one virtual CPU and on
//! two, and `mesa::RealCtx`.
//!
//! Nothing here asserts on how long anything took. The checks count and
//! order (items in = items out, FIFO per producer, one wakeup per
//! NOTIFY) and force the interleaving they need through the monitors
//! themselves; the one clock reading is a lower bound a timeout cannot
//! undercut. `until` polls with a liveness bound, so a broken backend
//! fails instead of hanging.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::SeqCst};
use std::sync::Arc;

use threadstudy::mesa::RealCtx;
use threadstudy::paradigms::callbacks::CallbackRegistry;
use threadstudy::paradigms::deadlock_avoid::{fork_to_avoid_deadlock, LockOrderRegistry};
use threadstudy::paradigms::defer::defer;
use threadstudy::paradigms::exploit::{fork_join, parallel_map, pooled_map, ForkJoinTask};
use threadstudy::paradigms::oneshot::{delayed_fork, GuardState, GuardedButton};
use threadstudy::paradigms::pipeline::pipeline;
use threadstudy::paradigms::pump::BoundedQueue;
use threadstudy::paradigms::rejuvenate::{rejuvenating_dispatcher, supervise, ServiceEnd};
use threadstudy::paradigms::serializer::MbQueue;
use threadstudy::paradigms::slack::{merge_by_key, spawn_slack, SlackPolicy};
use threadstudy::paradigms::sleeper::{spawn_service_sleeper, Periodical};
use threadstudy::pcr::{
    micros, millis, secs, ForkError, ForkPolicy, Guard, JoinError, Priority, RunLimit, Runtime,
    Sim, SimConfig, SimDuration, ThreadCtx, WaitOutcome,
};

const P: Priority = Priority::DEFAULT;

/// Runs `check` as the main thread of a fresh simulator with `cpus`
/// virtual processors.
fn in_sim(cfg: SimConfig, cpus: usize, check: impl FnOnce(&ThreadCtx) + Send + 'static) {
    let mut sim = Sim::with_cpus(cfg, cpus);
    let main = sim.fork_root("main", P, check);
    let report = sim.run(RunLimit::For(secs(600)));
    assert!(!report.deadlocked(), "{:?}", report.reason);
    main.into_result()
        .expect("main finished")
        .expect("main passed");
}

/// Polls until `cond` holds; gives up (failing the test) after a minute
/// of the backend's own clock.
fn until<C: Runtime>(ctx: &C, what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = ctx.now();
    while !cond() {
        assert!(ctx.now().since(t0) < secs(60), "gave up waiting for {what}");
        ctx.sleep_precise(millis(1));
    }
}

fn counter() -> (Arc<AtomicU32>, Arc<AtomicU32>) {
    let c = Arc::new(AtomicU32::new(0));
    (Arc::clone(&c), c)
}

// ---- §2: the primitives ----------------------------------------------------

/// Each NOTIFY wakes exactly one waiter, even with a full queue to
/// choose from: N waiters, N tokens handed out one NOTIFY at a time, and
/// exactly N returns from WAIT in total.
fn notify_wakes_exactly_one_waiter<C: Runtime>(ctx: &C) {
    const N: u32 = 4;
    // (tokens, threads inside WAIT, returns from WAIT)
    let m = ctx.new_monitor("m", (0u32, 0u32, 0u32));
    let cv = ctx.new_condition(&m, "cv", None);
    let waiters: Vec<_> = (0..N)
        .map(|i| {
            let (m, cv) = (m.clone(), cv.clone());
            ctx.fork(&format!("w{i}"), move |ctx| {
                let mut g = ctx.enter(&m);
                while g.with(|s| s.0 == 0) {
                    g.with_mut(|s| s.1 += 1);
                    g.wait(&cv);
                    g.with_mut(|s| (s.1, s.2) = (s.1 - 1, s.2 + 1));
                }
                g.with_mut(|s| s.0 -= 1);
            })
            .unwrap()
        })
        .collect();
    for left in (1..=N).rev() {
        // The count is kept under the monitor and WAIT releases it
        // atomically, so once it reads `left` they are all queued.
        until(ctx, "waiters to queue", || {
            ctx.enter(&m).with(|s| s.1 == left)
        });
        let mut g = ctx.enter(&m);
        g.with_mut(|s| s.0 += 1);
        g.notify(&cv);
        drop(g);
        until(ctx, "the token to be taken", || {
            ctx.enter(&m).with(|s| s.0 == 0)
        });
    }
    for w in waiters {
        ctx.join(w).unwrap();
    }
    assert_eq!(ctx.enter(&m).with(|s| s.2), N, "one wakeup per NOTIFY");
}

fn broadcast_wakes_all<C: Runtime>(ctx: &C) {
    const N: u32 = 4;
    // (flag, threads inside WAIT, threads that saw the flag)
    let m = ctx.new_monitor("flag", (false, 0u32, 0u32));
    let cv = ctx.new_condition(&m, "set", None);
    let waiters: Vec<_> = (0..N)
        .map(|i| {
            let (m, cv) = (m.clone(), cv.clone());
            ctx.fork(&format!("w{i}"), move |ctx| {
                let mut g = ctx.enter(&m);
                while g.with(|s| !s.0) {
                    g.with_mut(|s| s.1 += 1);
                    g.wait(&cv);
                    g.with_mut(|s| s.1 -= 1);
                }
                g.with_mut(|s| s.2 += 1);
            })
            .unwrap()
        })
        .collect();
    until(ctx, "waiters to queue", || ctx.enter(&m).with(|s| s.1 == N));
    let mut g = ctx.enter(&m);
    g.with_mut(|s| s.0 = true);
    g.broadcast(&cv);
    drop(g);
    until(ctx, "every waiter to wake", || {
        ctx.enter(&m).with(|s| s.2 == N)
    });
    for w in waiters {
        ctx.join(w).unwrap();
    }
}

/// A timed WAIT nobody notifies returns `TimedOut`, no sooner than the
/// CV's interval, and holds the monitor again: a contender hammering
/// the monitor never finds the waiter inside with it.
fn timed_wait_times_out_and_reholds_the_monitor<C: Runtime>(ctx: &C) {
    let m = ctx.new_monitor("m", false); // "somebody is inside"
    let cv = ctx.new_condition(&m, "never-notified", Some(millis(20)));
    let stop = Arc::new(AtomicBool::new(false));
    let (m2, stop2) = (m.clone(), Arc::clone(&stop));
    let contender = ctx
        .fork("contender", move |ctx| {
            while !stop2.load(SeqCst) {
                let mut g = ctx.enter(&m2);
                assert!(!g.with(|inside| *inside), "two threads inside");
                g.with_mut(|inside| *inside = true);
                ctx.yield_now();
                g.with_mut(|inside| *inside = false);
                drop(g);
                ctx.sleep_precise(micros(200));
            }
        })
        .unwrap();
    let t0 = ctx.now();
    let mut g = ctx.enter(&m);
    assert_eq!(g.wait(&cv), WaitOutcome::TimedOut);
    assert!(ctx.now().since(t0) >= millis(20));
    assert!(!g.with(|inside| *inside), "WAIT returned without the lock");
    g.with_mut(|inside| *inside = true);
    for _ in 0..50 {
        ctx.yield_now();
    }
    g.with_mut(|inside| *inside = false);
    drop(g);
    stop.store(true, SeqCst);
    ctx.join(contender).unwrap();
}

fn wait_until_before_gives_up_at_the_deadline<C: Runtime>(ctx: &C) {
    let m = ctx.new_monitor("m", 0u32);
    let cv = ctx.new_condition(&m, "cv", Some(millis(5)));
    let t0 = ctx.now();
    let mut g = ctx.enter(&m);
    assert!(!g.wait_until_before(&cv, millis(30), |v| *v > 0));
    assert!(ctx.now().since(t0) >= millis(30));
    g.with_mut(|v| *v = 1);
    assert!(g.wait_until_before(&cv, millis(30), |v| *v > 0));
}

fn join_returns_the_forked_value_or_its_panic<C: Runtime>(ctx: &C) {
    let h = ctx
        .fork("answer", |ctx| {
            ctx.work(micros(50));
            42u32
        })
        .unwrap();
    assert_ne!(C::handle_tid(&h), ctx.tid());
    assert_eq!(ctx.join(h), Ok(42));
    let h = ctx.fork("doomed", |_| -> u32 { panic!("boom {}", 7) });
    assert_eq!(
        ctx.join(h.unwrap()),
        Err(JoinError::Panicked("boom 7".into()))
    );
    // DETACH consumes the handle; the thread runs on regardless.
    let (ran, r2) = counter();
    let h = ctx.fork("detached", move |_| r2.store(1, SeqCst)).unwrap();
    ctx.detach(h);
    until(ctx, "the detached thread", || ran.load(SeqCst) == 1);
}

/// FORK past the runtime's thread limit is a `ForkError`, not a crash
/// or a hang, and the slots come back when the threads exit (§5.4).
fn fork_exhaustion_is_an_error<C: Runtime>(ctx: &C, limit: usize) {
    let gate = ctx.new_monitor("gate", false);
    let open = ctx.new_condition(&gate, "open", None);
    let mut parked = Vec::new();
    let err = loop {
        let (gate, open) = (gate.clone(), open.clone());
        match ctx.fork("parked", move |ctx| {
            ctx.enter(&gate).wait_until(&open, |o| *o)
        }) {
            Ok(h) => parked.push(h),
            Err(e) => break e,
        }
        assert!(parked.len() <= limit, "forked past the limit of {limit}");
    };
    assert_eq!(err, ForkError::ResourcesExhausted);
    let mut g = ctx.enter(&gate);
    g.with_mut(|o| *o = true);
    g.broadcast(&open);
    drop(g);
    for h in parked {
        ctx.join(h).unwrap();
    }
    let again = ctx.fork("after", |_| 1u8).expect("slots were recycled");
    assert_eq!(ctx.join(again), Ok(1));
}

fn fork_exhaustion_in_sim(cpus: usize) {
    let cfg = SimConfig::default()
        .with_max_threads(8)
        .with_fork_policy(ForkPolicy::Error);
    in_sim(cfg, cpus, |ctx| fork_exhaustion_is_an_error(ctx, 8));
}

#[test]
fn fork_exhaustion_is_an_error_on_the_simulator() {
    fork_exhaustion_in_sim(1);
}

#[test]
fn fork_exhaustion_is_an_error_on_two_cpus() {
    fork_exhaustion_in_sim(2);
}

#[test]
fn fork_exhaustion_is_an_error_on_real_threads() {
    fork_exhaustion_is_an_error(&RealCtx::root(), RealCtx::MAX_THREADS);
}

/// A non-atomic read–yield–write inside the monitor never loses an
/// update, and no two threads are ever inside at once.
fn monitors_exclude<C: Runtime>(ctx: &C) {
    let cell = ctx.new_monitor("cell", (0u32, false));
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let cell = cell.clone();
            ctx.fork(&format!("t{i}"), move |ctx| {
                for _ in 0..200 {
                    let mut g = ctx.enter(&cell);
                    let before = g.with_mut(|(v, inside)| {
                        assert!(!*inside, "two threads inside the monitor");
                        *inside = true;
                        *v
                    });
                    ctx.yield_now();
                    g.with_mut(|s| *s = (before + 1, false));
                }
            })
            .unwrap()
        })
        .collect();
    for w in workers {
        ctx.join(w).unwrap();
    }
    assert_eq!(ctx.enter(&cell).with(|s| s.0), 800);
}

fn a_panic_inside_a_monitor_releases_it<C: Runtime>(ctx: &C) {
    let m = ctx.new_monitor("m", 0u32);
    let m2 = m.clone();
    let h = ctx.fork("dies-inside", move |ctx| {
        let mut g = ctx.enter(&m2);
        g.with_mut(|v| *v = 1);
        panic!("die holding the monitor");
    });
    assert!(ctx.join(h.unwrap()).is_err());
    assert_eq!(ctx.enter(&m).with(|v| *v), 1);
}

// ---- §4: the paradigms, on either backend ----------------------------------

/// §4.2: FIFO, nothing lost, and the producer never runs more than the
/// capacity ahead; a closed queue rejects puts and wakes every taker.
fn bounded_queue_is_fifo_with_backpressure<C: Runtime>(ctx: &C) {
    let q = BoundedQueue::new(ctx, "q", 4, None);
    let qp = q.clone();
    let producer = ctx.fork("producer", move |ctx| {
        for i in 0..50u32 {
            assert!(qp.put(ctx, i));
        }
    });
    let mut got = Vec::new();
    while got.len() < 50 {
        assert!(q.len(ctx) <= 4, "producer ran past the capacity");
        got.extend(q.take(ctx));
    }
    ctx.join(producer.unwrap()).unwrap();
    assert_eq!(got, (0..50).collect::<Vec<_>>());

    assert_eq!(q.try_put_all(ctx, (0..6).collect()), vec![4, 5]);
    assert_eq!(q.try_put(ctx, 9), Err(9));
    assert_eq!(q.try_take(ctx), Some(0));
    assert_eq!(q.drain(ctx), vec![1, 2, 3]);
    assert!(q.is_empty(ctx) && q.try_take(ctx).is_none());

    let (woken, w2) = counter();
    for i in 0..3 {
        let (q, w) = (q.clone(), Arc::clone(&w2));
        ctx.fork_detached(&format!("taker{i}"), move |ctx| {
            assert_eq!(q.take(ctx), None);
            w.fetch_add(1, SeqCst);
        })
        .unwrap();
    }
    q.close(ctx);
    until(ctx, "close to wake every taker", || woken.load(SeqCst) == 3);
    assert!(q.is_closed(ctx) && !q.put(ctx, 1));
}

fn pipeline_transforms_filters_and_shuts_down<C: Runtime>(ctx: &C) {
    let p = pipeline::<u32, C>(ctx, "p", 8, P)
        .stage(SimDuration::ZERO, |x| (x % 2 == 0).then_some(x))
        .stage(SimDuration::ZERO, |x| Some(x * 10))
        .stage(SimDuration::ZERO, |x| Some(format!("v{x}")))
        .build();
    for i in 0..10 {
        p.source.put(ctx, i);
    }
    p.source.close(ctx);
    let mut got = Vec::new();
    while let Some(s) = p.sink.take(ctx) {
        got.push(s);
    }
    assert_eq!(got, ["v0", "v20", "v40", "v60", "v80"]);
    // Closing an empty pipeline still propagates stage by stage.
    let empty = pipeline::<u8, C>(ctx, "empty", 2, P)
        .stage(SimDuration::ZERO, Some)
        .build();
    empty.source.close(ctx);
    assert_eq!(empty.sink.take(ctx), None);
}

/// §4.2 slack: whatever the policy does to batching, every item is
/// taken once, batches never outnumber items, and what is emitted plus
/// what merging absorbed adds up to what went in.
fn slack_process_conserves_items<C: Runtime>(ctx: &C) {
    for policy in [
        SlackPolicy::Immediate,
        SlackPolicy::PlainYield,
        SlackPolicy::YieldButNotToMe,
        SlackPolicy::SleepTimeout(millis(1)),
        SlackPolicy::CountThreshold(4),
    ] {
        let input = BoundedQueue::new(ctx, "paint", 16, None);
        let (emitted, e2) = counter();
        let slack = spawn_slack(
            ctx,
            "buffer",
            P,
            input.clone(),
            policy,
            SimDuration::ZERO,
            merge_by_key(|r: &(u32, u32)| r.0),
            move |_ctx, batch| {
                e2.fetch_add(batch.len() as u32, SeqCst);
            },
        );
        for i in 0..100u32 {
            input.put(ctx, (i % 10, i));
        }
        input.close(ctx);
        slack.wait_done(ctx);
        let s = slack.stats(ctx);
        assert_eq!(s.items_in, 100, "{policy:?}");
        assert!((1..=100).contains(&s.batches_out), "{policy:?}: {s:?}");
        assert_eq!(
            u64::from(emitted.load(SeqCst)) + s.merged_away,
            100,
            "{policy:?}"
        );
    }
}

fn sleepers_tick_until_cancelled_and_service_in_order<C: Runtime>(ctx: &C) {
    let (ticks, t2) = counter();
    let ticker = Periodical::spawn(ctx, "tick", P, millis(1), move |_ctx| {
        t2.fetch_add(1, SeqCst);
    });
    until(ctx, "three ticks", || ticks.load(SeqCst) >= 3);
    ticker.cancel(ctx);
    assert!(ticker.is_cancelled(ctx));
    let at_cancel = ticks.load(SeqCst);
    ctx.sleep_precise(millis(10));
    // At most the tick already in flight lands after the cancel.
    assert!(ticks.load(SeqCst) <= at_cancel + 1);

    // Cancelling wakes a sleeper out of its nap: this one's thread (and
    // with it the closure's share of `alive`) is gone within `until`'s
    // minute, an hour before its first tick.
    let alive = Arc::new(());
    let a2 = Arc::clone(&alive);
    let hourly = Periodical::spawn(ctx, "hourly", P, secs(3600), move |_ctx| {
        let _ = &a2;
        panic!("ticked");
    });
    hourly.cancel(ctx);
    until(ctx, "the cancelled sleeper to exit", || {
        Arc::strong_count(&alive) == 1
    });

    let seen = ctx.new_monitor("seen", Vec::new());
    let s2 = seen.clone();
    let (_handle, work) = spawn_service_sleeper(
        ctx,
        "finalizer",
        P,
        8,
        SimDuration::ZERO,
        move |ctx, item| ctx.enter(&s2).with_mut(|v| v.push(item)),
    );
    for i in 0..5u32 {
        work.put(ctx, i);
    }
    until(ctx, "the service sleeper", || {
        ctx.enter(&seen).with(|v| v.len() == 5)
    });
    assert_eq!(ctx.enter(&seen).with(|v| v.clone()), [0, 1, 2, 3, 4]);
    work.close(ctx);
}

fn one_shots_fire_once_or_are_cancelled<C: Runtime>(ctx: &C) {
    let (fired, f2) = counter();
    let shot = delayed_fork(ctx, "shot", P, millis(1), move |_ctx| {
        f2.fetch_add(1, SeqCst);
    });
    until(ctx, "the one-shot", || fired.load(SeqCst) == 1);
    assert!(shot.fired(ctx));
    assert!(!shot.cancel(ctx), "too late to cancel");

    // Cancelled in time, it stays silent after its delay has elapsed.
    // (On a loaded box the cancel can come too late; cancel() says so,
    // and then there is nothing to check.)
    let (late, l2) = counter();
    let brief = delayed_fork(ctx, "brief", P, millis(20), move |_ctx| {
        l2.fetch_add(1, SeqCst);
    });
    if brief.cancel(ctx) {
        ctx.sleep_precise(millis(60));
        assert!(!brief.fired(ctx));
        assert_eq!(late.load(SeqCst), 0);
    }

    // An hour away: cancelled long before it can fire, and its thread
    // exits now (dropping the action) rather than in an hour.
    let action = Arc::new(());
    let a2 = Arc::clone(&action);
    let never = delayed_fork(ctx, "never", P, secs(3600), move |_ctx| {
        let _ = &a2;
        panic!("fired");
    });
    assert!(never.cancel(ctx));
    assert!(!never.fired(ctx));
    until(ctx, "the cancelled one-shot to exit", || {
        Arc::strong_count(&action) == 1
    });
}

/// §4.3's guarded button, by its transitions alone: the arming periods
/// below are either an hour (never elapse) or awaited by state.
fn guarded_button_cycle<C: Runtime>(ctx: &C) {
    let b = GuardedButton::new(millis(2), secs(3600));
    assert!(!b.press(ctx), "first press only starts arming");
    until(ctx, "the button to arm", || b.state() == GuardState::Armed);
    assert!(b.press(ctx), "a press in the armed window fires");
    assert_eq!(b.state(), GuardState::Guarded);

    let slow = GuardedButton::new(secs(3600), secs(3600));
    assert!(!slow.press(ctx));
    assert!(!slow.press(ctx), "too close: rejected");
    assert_eq!(slow.state(), GuardState::Arming);

    // Left alone it arms, then the window expires and the guard is
    // repainted; the next press starts a fresh cycle instead of firing.
    let lapsing = GuardedButton::new(millis(2), millis(4));
    assert!(!lapsing.press(ctx));
    until(ctx, "the guard to be repainted", || {
        lapsing.state() == GuardState::Guarded
    });
    assert!(!lapsing.press(ctx));
    assert_eq!(lapsing.state(), GuardState::Arming);
}

/// §4.6: actions from concurrent sources run one at a time, each
/// source's in the order it enqueued them.
fn serializer_preserves_per_source_order<C: Runtime>(ctx: &C) {
    let mb = MbQueue::new(ctx, "mb", P, 16);
    let log = ctx.new_monitor("log", Vec::new());
    let sources: Vec<_> = (0..4u32)
        .map(|src| {
            let (mb, log) = (mb.clone(), log.clone());
            ctx.fork(&format!("source{src}"), move |ctx| {
                for i in 0..25u32 {
                    let log = log.clone();
                    mb.enqueue(ctx, SimDuration::ZERO, move |ctx| {
                        ctx.enter(&log).with_mut(|v| v.push((src, i)))
                    });
                }
            })
            .unwrap()
        })
        .collect();
    for s in sources {
        ctx.join(s).unwrap();
    }
    mb.stop(ctx);
    until(ctx, "the serializer to drain", || {
        ctx.enter(&log).with(|v| v.len() == 100)
    });
    let log = ctx.enter(&log).with(|v| v.clone());
    for src in 0..4 {
        let seq: Vec<u32> = log.iter().filter(|e| e.0 == src).map(|e| e.1).collect();
        assert_eq!(seq, (0..25).collect::<Vec<_>>(), "source {src} reordered");
    }
}

/// §4.8: forked callbacks all run, clones share one registry, and a
/// panicking forked client dies alone.
fn forked_callbacks_run_and_spare_the_service<C: Runtime>(ctx: &C) {
    let reg: CallbackRegistry<u32, C> = CallbackRegistry::new(P);
    let (sum, s2) = counter();
    for _ in 0..4 {
        let sum = Arc::clone(&s2);
        reg.clone().register(SimDuration::ZERO, move |_ctx, ev| {
            sum.fetch_add(*ev, SeqCst);
        });
    }
    reg.register(SimDuration::ZERO, |_ctx, _ev| panic!("bad client"));
    assert_eq!(reg.len(), 5);
    reg.invoke(ctx, 10);
    until(ctx, "every callback", || sum.load(SeqCst) == 40);
}

/// §4.7: fan-out keeps the input order whatever order workers finish
/// in, and a pool touches every item exactly once.
fn exploiters_preserve_order_and_coverage<C: Runtime>(ctx: &C) {
    let squares = parallel_map(
        ctx,
        "sq",
        (0..16).collect(),
        SimDuration::ZERO,
        |_, x: u32| x * x,
    );
    assert_eq!(squares, (0..16).map(|x| x * x).collect::<Vec<_>>());
    let (calls, c2) = counter();
    let out = pooled_map(
        ctx,
        "pool",
        3,
        (0..10).collect(),
        SimDuration::ZERO,
        move |_, x: u32| {
            c2.fetch_add(1, SeqCst);
            x + 1
        },
    );
    assert_eq!(out, (1..11).collect::<Vec<_>>());
    assert_eq!(calls.load(SeqCst), 10);
    let none: Vec<u32> = pooled_map(ctx, "idle", 4, Vec::new(), SimDuration::ZERO, |_, x| x);
    assert!(none.is_empty());
    let (done, d2) = counter();
    let tasks = (0..5).map(|_| {
        let done = Arc::clone(&d2);
        Box::new(move |_: &C| _ = done.fetch_add(1, SeqCst)) as ForkJoinTask<C>
    });
    fork_join(ctx, "batch", tasks.collect());
    assert_eq!(done.load(SeqCst), 5);
}

/// §4.4: the registry flags a pair taken in both orders, per thread;
/// and a forked thread may wait for a lock its forker still holds,
/// where the same call inline would self-deadlock.
fn lock_order_is_checked_and_fork_escapes_it<C: Runtime>(ctx: &C) {
    let a = ctx.new_monitor("a", ());
    let b = ctx.new_monitor("b", ());
    let reg = LockOrderRegistry::new();
    for reversed in [false, true] {
        let (a, b, reg) = (a.clone(), b.clone(), reg.clone());
        let t = ctx.fork("locker", move |ctx| {
            let (first, second) = if reversed { (&b, &a) } else { (&a, &b) };
            let _outer = reg.enter(ctx, first);
            let _inner = reg.enter(ctx, second);
        });
        ctx.join(t.unwrap()).unwrap();
    }
    let violations = reg.violations();
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].acquired, C::monitor_id(&a));

    let layout = ctx.new_monitor("layout", 0u32);
    let held = ctx.enter(&layout);
    let l2 = layout.clone();
    fork_to_avoid_deadlock(ctx, "repaint", move |ctx| {
        ctx.enter(&l2).with_mut(|v| *v = 42)
    })
    .unwrap();
    drop(held); // Unwind completely; only now can the painter get in.
    until(ctx, "the repaint", || ctx.enter(&layout).with(|v| *v == 42));
}

/// §4.1: `defer` returns before the job finishes (the job below cannot
/// finish until the caller, back from `defer`, opens its gate), every
/// job runs, and a panicking job takes nothing else down.
fn deferred_work_runs_behind_the_caller<C: Runtime>(ctx: &C) {
    let gate = ctx.new_monitor("gate", false);
    let open = ctx.new_condition(&gate, "open", None);
    let (done, d2) = counter();
    for i in 0..20 {
        let (gate, open, done) = (gate.clone(), open.clone(), Arc::clone(&d2));
        defer(ctx, &format!("job{i}"), move |ctx| {
            ctx.enter(&gate).wait_until(&open, |o| *o);
            done.fetch_add(1, SeqCst);
        })
        .unwrap();
    }
    defer(ctx, "poisoned", |_| panic!("corrupt document")).unwrap();
    assert_eq!(done.load(SeqCst), 0);
    let mut g = ctx.enter(&gate);
    g.with_mut(|o| *o = true);
    g.broadcast(&open);
    drop(g);
    until(ctx, "every deferred job", || done.load(SeqCst) == 20);
}

/// §4.5: a fresh copy per failure until success or the budget runs out,
/// and a dispatcher that loses only the poison event.
fn rejuvenation_restarts_until_success_or_budget<C: Runtime>(ctx: &C) {
    let backoff = millis(1);
    let ok = supervise(ctx, "ok", P, 3, backoff, |_| |_: &C| ());
    assert_eq!((ok.starts, ok.end), (1, ServiceEnd::Completed));
    let flaky = supervise(ctx, "flaky", P, 5, backoff, |attempt| {
        move |_: &C| assert!(attempt >= 2, "flaky failure")
    });
    assert_eq!((flaky.starts, flaky.end), (3, ServiceEnd::Completed));
    let doomed = supervise(ctx, "doomed", P, 2, SimDuration::ZERO, |attempt| {
        move |_: &C| panic!("broken #{attempt}")
    });
    assert_eq!(doomed.starts, 3);
    assert_eq!(doomed.end, ServiceEnd::GaveUp("broken #2".into()));

    let (next, n2) = counter();
    let (delivered, d2) = counter();
    let (n, restarts) = rejuvenating_dispatcher(
        ctx,
        "dispatcher",
        P,
        3,
        move |_| Some(n2.fetch_add(1, SeqCst)).filter(|i| *i < 20),
        move |_, ev: u32| {
            assert_ne!(ev, 7, "client callback error");
            d2.fetch_add(1, SeqCst);
        },
    );
    assert_eq!(restarts, 1);
    assert!(n >= 13, "n = {n}");
    assert_eq!(delivered.load(SeqCst), 19, "all but the poison event");
    assert!(next.load(SeqCst) >= 20);
}

macro_rules! on_both_backends {
    ($($check:ident),* $(,)?) => {
        mod on_the_simulator {
            $(#[test]
            fn $check() {
                super::in_sim(super::SimConfig::default(), 1, super::$check::<super::ThreadCtx>);
            })*
        }
        mod on_two_cpus {
            $(#[test]
            fn $check() {
                super::in_sim(super::SimConfig::default(), 2, super::$check::<super::ThreadCtx>);
            })*
        }
        mod on_real_threads {
            $(#[test]
            fn $check() {
                super::$check(&super::RealCtx::root());
            })*
        }
    };
}

on_both_backends![
    notify_wakes_exactly_one_waiter,
    broadcast_wakes_all,
    timed_wait_times_out_and_reholds_the_monitor,
    wait_until_before_gives_up_at_the_deadline,
    join_returns_the_forked_value_or_its_panic,
    monitors_exclude,
    a_panic_inside_a_monitor_releases_it,
    bounded_queue_is_fifo_with_backpressure,
    pipeline_transforms_filters_and_shuts_down,
    slack_process_conserves_items,
    sleepers_tick_until_cancelled_and_service_in_order,
    one_shots_fire_once_or_are_cancelled,
    guarded_button_cycle,
    serializer_preserves_per_source_order,
    forked_callbacks_run_and_spare_the_service,
    exploiters_preserve_order_and_coverage,
    lock_order_is_checked_and_fork_escapes_it,
    deferred_work_runs_behind_the_caller,
    rejuvenation_restarts_until_success_or_budget,
];
