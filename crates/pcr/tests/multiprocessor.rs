//! Integration tests for the simulator on more than one CPU: timers,
//! CVs, fault paths, fairness, and interactions that the in-module unit
//! tests don't cover. (`chaos.rs` and `policy.rs` run their worlds on two
//! CPUs as well as one.)

use pcr::{
    micros, millis, secs, ChaosConfig, JoinError, NotifyMode, Priority, RunLimit, Sim, SimConfig,
    SimTime, StopReason, WaitOutcome,
};

fn mp(cpus: usize) -> Sim {
    Sim::with_cpus(SimConfig::default(), cpus)
}

#[test]
fn sleeps_and_timers_fire_across_cpus() {
    let mut s = mp(2);
    let a = s.fork_root("a", Priority::DEFAULT, |ctx| {
        ctx.sleep_precise(millis(10));
        ctx.now()
    });
    let b = s.fork_root("b", Priority::DEFAULT, |ctx| {
        ctx.sleep_precise(millis(25));
        ctx.now()
    });
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    assert_eq!(
        a.into_result().unwrap().unwrap(),
        SimTime::from_micros(10_000)
    );
    assert_eq!(
        b.into_result().unwrap().unwrap(),
        SimTime::from_micros(25_000)
    );
}

#[test]
fn plain_sleep_quantizes_like_the_up_scheduler() {
    let mut s = mp(2);
    let h = s.fork_root("sleeper", Priority::DEFAULT, |ctx| {
        ctx.sleep(millis(30));
        ctx.now()
    });
    s.run(RunLimit::ToCompletion);
    assert_eq!(
        h.into_result().unwrap().unwrap(),
        SimTime::from_micros(50_000)
    );
}

#[test]
fn cv_timeout_fires_with_all_cpus_busy() {
    // Two hogs occupy both CPUs; a waiter's CV timeout must still fire
    // and preempt one of them (the waiter has higher priority).
    let mut s = mp(2);
    let m = s.monitor("m", ());
    let cv = s.condition(&m, "cv", Some(millis(40)));
    let _ = s.fork_root("hog1", Priority::of(3), |ctx| ctx.work(millis(500)));
    let _ = s.fork_root("hog2", Priority::of(3), |ctx| ctx.work(millis(500)));
    let h = s.fork_root("waiter", Priority::of(5), move |ctx| {
        let mut g = ctx.enter(&m);
        let outcome = g.wait(&cv);
        (outcome, ctx.now())
    });
    s.run(RunLimit::ToCompletion);
    let (outcome, woke) = h.into_result().unwrap().unwrap();
    assert_eq!(outcome, WaitOutcome::TimedOut);
    assert_eq!(woke.as_micros() / 1000, 50, "woke at {woke}");
}

#[test]
fn equal_priority_threads_share_via_quantum_rotation() {
    // 3 hogs on 2 CPUs: rotation must give all three comparable CPU.
    let mut s = mp(2);
    let hs: Vec<_> = (0..3)
        .map(|i| {
            s.fork_root(&format!("h{i}"), Priority::DEFAULT, |ctx| {
                ctx.work(millis(300));
                ctx.now()
            })
        })
        .collect();
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    let ends: Vec<u64> = hs
        .into_iter()
        .map(|h| h.into_result().unwrap().unwrap().as_micros())
        .collect();
    // Total 900ms over 2 CPUs: makespan ~450ms; with rotation all three
    // finish within one quantum of each other near the end.
    let max = *ends.iter().max().unwrap();
    let min = *ends.iter().min().unwrap();
    assert!((440_000..=470_000).contains(&max), "ends {ends:?}");
    assert!(max - min <= 110_000, "unfair rotation: {ends:?}");
    assert!(s.stats().quantum_expiries > 0);
}

#[test]
fn recursive_enter_faults_the_thread_only() {
    let mut s = mp(2);
    let m = s.monitor("m", ());
    let h = s.fork_root("recursive", Priority::DEFAULT, move |ctx| {
        let _a = ctx.enter(&m);
        // Deliberate re-entry: the runtime must fault only this thread.
        // threadlint: allow(lock-order-cycle)
        let _b = ctx.enter(&m);
    });
    let _ = s.fork_root("bystander", Priority::DEFAULT, |ctx| ctx.work(millis(5)));
    let r = s.run(RunLimit::For(secs(2)));
    assert_eq!(r.reason, StopReason::AllExited);
    match h.into_result().unwrap() {
        Err(JoinError::Panicked(msg)) => assert!(msg.contains("recursive"), "{msg}"),
        other => panic!("expected panic, got {other:?}"),
    }
}

#[test]
fn broadcast_fans_out_to_all_cpus() {
    let mut s = mp(4);
    let m = s.monitor("flag", false);
    let cv = s.condition(&m, "set", None);
    let hs: Vec<_> = (0..6)
        .map(|i| {
            let (m, cv) = (m.clone(), cv.clone());
            s.fork_root(&format!("w{i}"), Priority::DEFAULT, move |ctx| {
                let mut g = ctx.enter(&m);
                g.wait_until(&cv, |&f| f);
                drop(g); // Release before the real work.
                ctx.work(millis(10)); // Post-wake work spreads over CPUs.
                ctx.now()
            })
        })
        .collect();
    let _ = s.fork_root("setter", Priority::of(6), move |ctx| {
        ctx.sleep_precise(millis(5));
        let mut g = ctx.enter(&m);
        g.with_mut(|f| *f = true);
        g.broadcast(&cv);
    });
    let r = s.run(RunLimit::For(secs(5)));
    assert_eq!(r.reason, StopReason::AllExited);
    let ends: Vec<u64> = hs
        .into_iter()
        .map(|h| h.into_result().unwrap().unwrap().as_micros())
        .collect();
    // 6 × 10ms of post-wake work over ~4 CPUs: everything well under the
    // 60ms a uniprocessor would need.
    assert!(ends.iter().all(|&e| e < 40_000), "ends {ends:?}");
}

#[test]
fn deadlock_detected_on_mp_too() {
    let mut s = mp(2);
    let a = s.monitor("a", ());
    let b = s.monitor("b", ());
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
    assert!(r.deadlocked(), "got {:?}", r.reason);
}

#[test]
fn immediate_notify_between_same_priorities_only_conflicts_on_mp() {
    // The same program: on 1 CPU the notifier finishes its monitor
    // section before the equal-priority wakee runs (no preemption), so
    // no conflicts; on 2 CPUs the wakee starts concurrently and hits the
    // held monitor — exactly Birrell's distinction.
    let run = |cpus: usize| {
        let mut s = Sim::with_cpus(
            SimConfig::default().with_notify_mode(NotifyMode::Immediate),
            cpus,
        );
        let m = s.monitor("m", 0u32);
        let cv = s.condition(&m, "cv", None);
        let (m2, cv2) = (m.clone(), cv.clone());
        let _ = s.fork_root("waiter", Priority::DEFAULT, move |ctx| {
            let mut g = ctx.enter(&m2);
            g.wait_until(&cv2, |&v| v >= 30);
        });
        let _ = s.fork_root("notifier", Priority::DEFAULT, move |ctx| {
            for _ in 0..30 {
                let mut g = ctx.enter(&m);
                g.with_mut(|v| *v += 1);
                g.notify(&cv);
                ctx.work(micros(100));
                drop(g);
                ctx.work(micros(100));
            }
        });
        let r = s.run(RunLimit::For(secs(10)));
        assert!(!r.deadlocked());
        s.stats().spurious_conflicts
    };
    assert_eq!(
        run(1),
        0,
        "uniprocessor equal-priority: no preemption, no conflict"
    );
    assert!(
        run(2) >= 25,
        "multiprocessor: nearly every notify conflicts"
    );
}

#[test]
fn mp_stats_accumulate_cpu_by_priority() {
    let mut s = mp(2);
    let _ = s.fork_root("p2", Priority::of(2), |ctx| ctx.work(millis(20)));
    let _ = s.fork_root("p6", Priority::of(6), |ctx| ctx.work(millis(30)));
    s.run(RunLimit::ToCompletion);
    assert_eq!(s.stats().cpu_by_priority[1], millis(20));
    assert_eq!(s.stats().cpu_by_priority[5], millis(30));
    assert_eq!(s.stats().total_cpu, millis(50));
}

#[test]
fn a_lone_thread_is_switched_to_once() {
    // 1 s of work is 20 quanta: 19 expiries, each finding no competitor,
    // so the hog keeps its CPU and nothing is switched to after the start.
    let mut s = mp(2);
    let _ = s.fork_root("hog", Priority::DEFAULT, |ctx| ctx.work(secs(1)));
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(
        (r.reason, r.now),
        (StopReason::AllExited, SimTime::from_micros(1_000_000))
    );
    assert_eq!((s.stats().switches, s.stats().quantum_expiries), (1, 19));
}

#[test]
fn a_stall_takes_a_running_thread_off_its_cpu() {
    // Caught mid-`work` at 10 ms for 50 ms: the 100 ms of work end at
    // 150 ms, and the CPU it vacated runs the lower-priority filler.
    let stall = ChaosConfig::none().stall("hog", SimTime::from_micros(10_000), millis(50));
    let mut s = Sim::with_cpus(SimConfig::default().with_chaos(stall), 2);
    let hog = s.fork_root("hog", Priority::of(5), |ctx| {
        ctx.work(millis(100));
        ctx.now()
    });
    let _ = s.fork_root("busy", Priority::of(5), |ctx| ctx.work(millis(100)));
    let filler = s.fork_root("filler", Priority::of(2), |ctx| {
        ctx.work(millis(20));
        ctx.now()
    });
    s.run(RunLimit::ToCompletion);
    assert_eq!(s.stats().chaos_stalls, 1);
    let at = |h: pcr::JoinHandle<SimTime>| h.into_result().unwrap().unwrap().as_micros();
    assert_eq!((at(hog), at(filler)), (150_000, 30_000));
}

#[test]
#[should_panic(expected = "at least one CPU")]
fn zero_cpus_rejected() {
    let _ = Sim::with_cpus(SimConfig::default(), 0);
}
