//! Integration tests for monitors, condition variables, fault paths,
//! fork policies, and deadlock reporting.

use pcr::{
    micros, millis, secs, ForkError, ForkPolicy, JoinError, NotifyMode, Priority, RunLimit, Sim,
    SimConfig, StopReason, WaitOutcome,
};

fn sim() -> Sim {
    Sim::new(SimConfig::default())
}

// ---- monitors -------------------------------------------------------------

#[test]
fn monitor_protects_a_read_modify_write() {
    let mut s = sim();
    let m = s.monitor("counter", 0u64);
    for i in 0..4 {
        let m = m.clone();
        let _ = s.fork_root(&format!("w{i}"), Priority::DEFAULT, move |ctx| {
            for _ in 0..25 {
                let mut g = ctx.enter(&m);
                let v = g.with(|v| *v);
                ctx.work(micros(500)); // Quantum expiry can land here.
                g.with_mut(|x| *x = v + 1);
            }
        });
    }
    let h = s.fork_root("reader", Priority::of(2), move |ctx| {
        let g = ctx.enter(&m);
        g.with(|v| *v)
    });
    s.run(RunLimit::ToCompletion);
    assert_eq!(h.into_result().unwrap().unwrap(), 100);
}

#[test]
fn recursive_monitor_entry_panics_the_thread_not_the_sim() {
    let mut s = sim();
    let m = s.monitor("m", 0u32);
    let m2 = m.clone();
    let h = s.fork_root("recursive", Priority::DEFAULT, move |ctx| {
        let _g1 = ctx.enter(&m);
        // Mesa monitors are not re-entrant; this provokes the fault on
        // purpose. threadlint: allow(lock-order-cycle)
        let _g2 = ctx.enter(&m);
    });
    // Runs on after the fault, through the monitor the faulting thread's
    // unwind released.
    let sibling = s.fork_root("sibling", Priority::DEFAULT, move |ctx| {
        ctx.sleep_precise(millis(1));
        let mut g = ctx.enter(&m2);
        g.with_mut(|v| *v += 1);
        ctx.work(millis(1));
        g.with(|v| *v)
    });
    let r = s.run(RunLimit::For(secs(2)));
    assert_eq!(r.reason, StopReason::AllExited, "sim must survive");
    match h.into_result().unwrap() {
        Err(JoinError::Panicked(msg)) => assert_eq!(
            msg,
            "recursive monitor entry on ML0 (m); Mesa monitors are not re-entrant"
        ),
        other => panic!("expected panic, got {other:?}"),
    }
    assert_eq!(sibling.into_result().unwrap(), Ok(1));
    assert!(s.now() >= pcr::SimTime::ZERO + millis(2), "{}", s.now());
    assert_eq!(s.stats().panics, 1);
}

#[test]
fn panic_inside_monitor_releases_it() {
    let mut s = sim();
    let m = s.monitor("m", 0u32);
    let m2 = m.clone();
    let _ = s.fork_root("dies-inside", Priority::of(5), move |ctx| {
        let mut g = ctx.enter(&m2);
        g.with_mut(|v| *v = 1);
        panic!("dies holding the monitor");
    });
    let h = s.fork_root("survivor", Priority::of(4), move |ctx| {
        ctx.sleep_precise(millis(1));
        let g = ctx.enter(&m); // Must not deadlock.
        g.with(|v| *v)
    });
    let r = s.run(RunLimit::For(secs(2)));
    assert_eq!(r.reason, StopReason::AllExited);
    assert_eq!(h.into_result().unwrap().unwrap(), 1);
}

// ---- condition variables --------------------------------------------------

#[test]
fn broadcast_wakes_every_waiter() {
    let mut s = sim();
    let m = s.monitor("flag", false);
    let cv = s.condition(&m, "set", None);
    let mut handles = Vec::new();
    for i in 0..5 {
        let (m, cv) = (m.clone(), cv.clone());
        handles.push(
            s.fork_root(&format!("w{i}"), Priority::DEFAULT, move |ctx| {
                let mut g = ctx.enter(&m);
                g.wait_until(&cv, |&f| f);
                true
            }),
        );
    }
    let _ = s.fork_root("setter", Priority::of(3), move |ctx| {
        ctx.sleep_precise(millis(5));
        let mut g = ctx.enter(&m);
        g.with_mut(|f| *f = true);
        g.broadcast(&cv);
    });
    let r = s.run(RunLimit::For(secs(2)));
    assert_eq!(r.reason, StopReason::AllExited);
    for h in handles {
        assert!(h.into_result().unwrap().unwrap());
    }
    assert_eq!(s.stats().cv_broadcasts, 1);
}

#[test]
fn notify_wakes_exactly_one_waiter() {
    let mut s = sim();
    let m = s.monitor("q", 0u32);
    let cv = s.condition(&m, "cv", Some(millis(200)));
    let mut handles = Vec::new();
    for i in 0..3 {
        let (m, cv) = (m.clone(), cv.clone());
        handles.push(
            s.fork_root(&format!("w{i}"), Priority::DEFAULT, move |ctx| {
                let mut g = ctx.enter(&m);
                g.wait(&cv)
            }),
        );
    }
    let _ = s.fork_root("notifier", Priority::of(3), move |ctx| {
        ctx.sleep_precise(millis(5));
        let g = ctx.enter(&m);
        g.notify(&cv);
    });
    s.run(RunLimit::For(secs(2)));
    let outcomes: Vec<WaitOutcome> = handles
        .into_iter()
        .map(|h| h.into_result().unwrap().unwrap())
        .collect();
    let notified = outcomes
        .iter()
        .filter(|o| **o == WaitOutcome::Notified)
        .count();
    let timed_out = outcomes
        .iter()
        .filter(|o| **o == WaitOutcome::TimedOut)
        .count();
    assert_eq!(notified, 1, "exactly one waiter wakens: {outcomes:?}");
    assert_eq!(timed_out, 2);
}

#[test]
fn notify_with_no_waiters_is_a_noop() {
    let mut s = sim();
    let m = s.monitor("m", ());
    let cv = s.condition(&m, "cv", None);
    let _ = s.fork_root("n", Priority::DEFAULT, move |ctx| {
        let g = ctx.enter(&m);
        g.notify(&cv);
        g.broadcast(&cv);
    });
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    assert_eq!(s.stats().cv_notifies, 1);
}

#[test]
fn timeout_is_quantized_to_the_tick() {
    let mut s = sim();
    let m = s.monitor("m", ());
    let cv = s.condition(&m, "cv", Some(millis(30)));
    let h = s.fork_root("w", Priority::DEFAULT, move |ctx| {
        let mut g = ctx.enter(&m);
        let before = ctx.now();
        let outcome = g.wait(&cv);
        (outcome, ctx.now().since(before))
    });
    s.run(RunLimit::ToCompletion);
    let (outcome, waited) = h.into_result().unwrap().unwrap();
    assert_eq!(outcome, WaitOutcome::TimedOut);
    // The 30ms deadline rounds up to the 50ms tick; the wait began a few
    // switch-costs after t=0, so the observed wait is just under 50ms.
    assert!(
        waited >= millis(30) && waited <= millis(50),
        "waited {waited}"
    );
    // The timer fired on the 50ms tick; only microsecond primitive costs
    // separate the observed wake from the tick itself.
    let off_tick = s.now().as_micros() % 50_000;
    assert!(off_tick < 10, "woke {off_tick}us off-tick");
}

#[test]
fn wait_on_foreign_monitors_cv_panics() {
    let mut s = sim();
    let a = s.monitor("a", ());
    let b = s.monitor("b", ());
    let cv_b = s.condition(&b, "of-b", None);
    let h = s.fork_root("confused", Priority::DEFAULT, move |ctx| {
        let mut g = ctx.enter(&a);
        let _ = ctx.wait(&mut g, &cv_b);
    });
    s.run(RunLimit::For(secs(1)));
    match h.into_result().unwrap() {
        Err(JoinError::Panicked(msg)) => assert!(msg.contains("does not belong"), "{msg}"),
        other => panic!("expected panic, got {other:?}"),
    }
}

#[test]
fn immediate_vs_deferred_notify_mode_is_observable() {
    let run = |mode: NotifyMode| {
        let mut s = Sim::new(SimConfig::default().with_notify_mode(mode));
        let m = s.monitor("m", 0u32);
        let cv = s.condition(&m, "cv", None);
        let (m2, cv2) = (m.clone(), cv.clone());
        let _ = s.fork_root("hi-waiter", Priority::of(6), move |ctx| {
            let mut g = ctx.enter(&m2);
            g.wait_until(&cv2, |&v| v >= 20);
        });
        let _ = s.fork_root("lo-notifier", Priority::of(3), move |ctx| {
            for _ in 0..20 {
                let mut g = ctx.enter(&m);
                g.with_mut(|v| *v += 1);
                g.notify(&cv);
                ctx.work(micros(100)); // Still holding the monitor.
                drop(g);
            }
        });
        s.run(RunLimit::For(secs(5)));
        s.stats().spurious_conflicts
    };
    assert!(run(NotifyMode::Immediate) >= 19);
    assert_eq!(run(NotifyMode::DeferredReschedule), 0);
}

// ---- fork policies and lifecycle -------------------------------------------

#[test]
fn error_policy_reports_exhaustion() {
    let mut s = Sim::new(
        SimConfig::default()
            .with_max_threads(3)
            .with_fork_policy(ForkPolicy::Error),
    );
    let h = s.fork_root("spawner", Priority::DEFAULT, move |ctx| {
        let mut ok = 0;
        let mut failed = 0;
        let mut handles = Vec::new();
        for i in 0..6 {
            match ctx.fork(&format!("c{i}"), |ctx| ctx.work(millis(100))) {
                Ok(h) => {
                    ok += 1;
                    handles.push(h);
                }
                Err(ForkError::ResourcesExhausted) => failed += 1,
            }
        }
        for h in handles {
            let _ = ctx.join(h);
        }
        (ok, failed)
    });
    s.run(RunLimit::For(secs(5)));
    let (ok, failed) = h.into_result().unwrap().unwrap();
    assert_eq!(ok, 2, "spawner + 2 children = limit of 3");
    assert_eq!(failed, 4);
    assert_eq!(s.stats().fork_failures, 4);
}

#[test]
fn wait_policy_blocks_until_a_slot_frees() {
    let mut s = Sim::new(
        SimConfig::default()
            .with_max_threads(2)
            .with_fork_policy(ForkPolicy::WaitForResources),
    );
    let h = s.fork_root("spawner", Priority::DEFAULT, move |ctx| {
        let t0 = ctx.now();
        let a = ctx.fork("a", |ctx| ctx.work(millis(30))).unwrap();
        // At the limit now: this fork must block until `a` exits.
        let b = ctx.fork("b", |ctx| ctx.work(millis(1))).unwrap();
        let blocked_for = ctx.now().since(t0);
        ctx.join(a).unwrap();
        ctx.join(b).unwrap();
        blocked_for
    });
    let r = s.run(RunLimit::For(secs(5)));
    assert_eq!(r.reason, StopReason::AllExited);
    let blocked = h.into_result().unwrap().unwrap();
    assert!(blocked >= millis(30), "fork blocked only {blocked}");
    assert_eq!(s.stats().fork_blocks, 1);
}

#[test]
fn detached_threads_free_their_slots() {
    let mut s = Sim::new(SimConfig::default().with_max_threads(3));
    let _ = s.fork_root("spawner", Priority::DEFAULT, move |ctx| {
        for i in 0..20 {
            // Sequential detached children never exceed the limit.
            let tid = ctx
                .fork_detached(&format!("d{i}"), |ctx| ctx.work(millis(1)))
                .unwrap();
            let _ = tid;
            ctx.sleep_precise(millis(5));
        }
    });
    let r = s.run(RunLimit::For(secs(5)));
    assert_eq!(r.reason, StopReason::AllExited);
    assert_eq!(s.stats().forks, 21);
    assert!(s.stats().fork_blocks <= 1);
}

// ---- deadlock detection -----------------------------------------------------

#[test]
fn abba_deadlock_is_reported_with_owners() {
    let mut s = sim();
    let a = s.monitor("res-a", ());
    let b = s.monitor("res-b", ());
    let (a1, b1) = (a.clone(), b.clone());
    let _ = s.fork_root("t1", Priority::DEFAULT, move |ctx| {
        let _g = ctx.enter(&a1);
        ctx.sleep_precise(millis(5)); // threadlint: allow(blocking-call-in-monitor)
        let _g2 = ctx.enter(&b1); // threadlint: allow(lock-order-cycle)
    });
    let _ = s.fork_root("t2", Priority::DEFAULT, move |ctx| {
        let _g = ctx.enter(&b);
        ctx.sleep_precise(millis(5)); // threadlint: allow(blocking-call-in-monitor)
        let _g2 = ctx.enter(&a); // threadlint: allow(lock-order-cycle)
    });
    let r = s.run(RunLimit::For(secs(5)));
    let StopReason::Deadlock(report) = r.reason else {
        panic!("expected deadlock, got {:?}", r.reason);
    };
    assert_eq!(report.blocked.len(), 2);
    let text = report.to_string();
    assert!(text.contains("res-a") && text.contains("res-b"), "{text}");
    for b in &report.blocked {
        assert!(b.blocked_on.is_some(), "wait-for edge missing: {b:?}");
    }
}

#[test]
fn untimed_cv_wait_with_no_notifier_deadlocks() {
    let mut s = sim();
    let m = s.monitor("m", ());
    let cv = s.condition(&m, "never", None);
    let _ = s.fork_root("forever", Priority::DEFAULT, move |ctx| {
        let mut g = ctx.enter(&m);
        let _ = g.wait(&cv);
    });
    let r = s.run(RunLimit::For(secs(5)));
    assert!(r.deadlocked(), "got {:?}", r.reason);
}

#[test]
fn join_cycle_is_a_deadlock() {
    let mut s = sim();
    let h1 = s.fork_root("a", Priority::DEFAULT, |ctx| {
        ctx.sleep_precise(secs(3600)); // Never finishes on its own.
    });
    let tid = h1.tid();
    let _ = s.fork_root("joiner", Priority::DEFAULT, move |ctx| {
        ctx.join(h1).unwrap();
    });
    let r = s.run(RunLimit::For(secs(1)));
    // Not a deadlock (the sleeper has a timer) but the joiner is blocked.
    assert_eq!(r.reason, StopReason::TimeLimit);
    let joiner = s.threads_iter().find(|t| t.name == "joiner").unwrap();
    assert!(!joiner.exited);
    let _ = tid;
}

// ---- run() resumability ------------------------------------------------------

#[test]
fn run_can_be_resumed_and_accumulates() {
    let mut s = sim();
    let _ = s.fork_root("ticker", Priority::DEFAULT, |ctx| loop {
        ctx.sleep(millis(100));
        ctx.work(millis(1));
    });
    let r1 = s.run(RunLimit::For(secs(1)));
    let cpu_1 = s.stats().total_cpu;
    let r2 = s.run(RunLimit::For(secs(1)));
    assert_eq!(r1.elapsed, secs(1));
    assert_eq!(r2.elapsed, secs(1));
    assert_eq!(r2.now, pcr::SimTime::ZERO + secs(2));
    // The ticker kept accumulating CPU across the resumed run.
    assert!(s.stats().total_cpu > cpu_1);
}

#[test]
fn run_until_absolute_time() {
    let mut s = sim();
    let _ = s.fork_root("t", Priority::DEFAULT, |ctx| loop {
        ctx.sleep(millis(50));
    });
    let r = s.run(RunLimit::Until(pcr::SimTime::from_micros(750_000)));
    assert_eq!(r.now.as_micros(), 750_000);
}
