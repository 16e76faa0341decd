//! Integration tests for the simulator on more than one CPU: makespan,
//! global strict priority, cross-CPU monitor exclusion, Birrell's §6.1
//! conflict, determinism, timers, CVs, fault paths and fairness.
//! (`chaos.rs` and `policy.rs` run their worlds on two CPUs as well as
//! one.)

use pcr::{
    micros, millis, secs, ChaosConfig, JoinError, JoinHandle, NotifyMode, PolicyKind, Priority,
    RunLimit, Sim, SimConfig, SimDuration, SimTime, StopReason, WaitOutcome,
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

fn hogs(sim: &mut Sim, n: usize, work: SimDuration) -> Vec<JoinHandle<SimTime>> {
    (0..n)
        .map(|i| {
            sim.fork_root(&format!("hog{i}"), Priority::DEFAULT, move |ctx| {
                ctx.work(work);
                ctx.now()
            })
        })
        .collect()
}

#[test]
fn two_cpus_halve_makespan() {
    // 4 × 100ms of work: 400ms on one CPU, ~200ms on two.
    let t_for = |cpus: usize| {
        let mut sim = Sim::with_cpus(SimConfig::default(), cpus);
        let hs = hogs(&mut sim, 4, millis(100));
        let r = sim.run(RunLimit::ToCompletion);
        assert_eq!(r.reason, StopReason::AllExited);
        drop(hs);
        r.now.as_micros()
    };
    // One CPU is `Sim::new`: the 400ms of work plus 40µs per switch.
    let one = t_for(1);
    let two = t_for(2);
    let four = t_for(4);
    assert!((380_000..=430_000).contains(&one), "1cpu {one}");
    assert!((190_000..=230_000).contains(&two), "2cpu {two}");
    assert!((95_000..=130_000).contains(&four), "4cpu {four}");
}

#[test]
fn strict_priority_across_cpus() {
    // 2 CPUs, three threads: the two highest always run.
    let mut sim = Sim::with_cpus(SimConfig::default(), 2);
    let lo = sim.fork_root("lo", Priority::of(2), |ctx| {
        ctx.work(millis(10));
        ctx.now()
    });
    let _m1 = sim.fork_root("m1", Priority::of(5), |ctx| {
        ctx.work(millis(50));
        ctx.now()
    });
    let _m2 = sim.fork_root("m2", Priority::of(5), |ctx| {
        ctx.work(millis(50));
        ctx.now()
    });
    sim.run(RunLimit::ToCompletion);
    let lo_end = lo.into_result().unwrap().unwrap();
    // The low thread only starts after a mid finishes: ends ~60ms.
    assert!(lo_end >= SimTime::from_micros(58_000), "lo ended {lo_end}");
}

#[test]
fn monitors_are_globally_exclusive_across_cpus() {
    // A forker forks 4 workers hammering one monitor from 4 CPUs,
    // joins them, then reads the count (a low-priority sibling probe
    // would run immediately here — a free CPU always exists).
    let mut sim = Sim::with_cpus(SimConfig::default(), 4);
    let m = sim.monitor("m", (0u64, false));
    let h = sim.fork_root("forker", Priority::of(5), move |ctx| {
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let m = m.clone();
                ctx.fork_prio(&format!("t{i}"), Priority::DEFAULT, move |ctx| {
                    for _ in 0..20 {
                        let mut g = ctx.enter(&m);
                        g.with_mut(|(_, inside)| {
                            assert!(!*inside, "two threads inside");
                            *inside = true;
                        });
                        ctx.work(micros(200));
                        g.with_mut(|(v, inside)| {
                            *v += 1;
                            *inside = false;
                        });
                    }
                })
                .unwrap()
            })
            .collect();
        for w in workers {
            ctx.join(w).unwrap();
        }
        let g = ctx.enter(&m);
        g.with(|(v, _)| *v)
    });
    let r = sim.run(RunLimit::For(secs(30)));
    assert_eq!(r.reason, StopReason::AllExited);
    assert_eq!(h.into_result().unwrap().unwrap(), 80);
    // Real cross-CPU contention happened.
    assert!(sim.stats().ml_contended > 0);
}

#[test]
fn birrells_multiprocessor_spurious_conflict() {
    // §6.1's original scenario needs two processors: the notifier
    // keeps running (same priority as the waiter!) while the waiter
    // starts on the other CPU and hits the still-held monitor.
    let run = |policy: PolicyKind, mode: NotifyMode| {
        let cfg = SimConfig::default()
            .with_policy(policy)
            .with_notify_mode(mode);
        let mut sim = Sim::with_cpus(cfg, 2);
        let m = sim.monitor("m", 0u32);
        let cv = sim.condition(&m, "cv", None);
        let (m2, cv2) = (m.clone(), cv.clone());
        let _ = sim.fork_root("waiter", Priority::DEFAULT, move |ctx| {
            let mut g = ctx.enter(&m2);
            g.wait_until(&cv2, |&v| v >= 50);
        });
        let _ = sim.fork_root("notifier", Priority::DEFAULT, move |ctx| {
            for _ in 0..50 {
                let mut g = ctx.enter(&m);
                g.with_mut(|v| *v += 1);
                g.notify(&cv);
                ctx.work(micros(100)); // Still holding.
                drop(g);
                ctx.work(micros(100));
            }
        });
        let r = sim.run(RunLimit::For(secs(10)));
        assert!(!r.deadlocked());
        sim.stats().spurious_conflicts
    };
    assert!(
        run(PolicyKind::RoundRobin, NotifyMode::Immediate) >= 40,
        "immediate mode must conflict on an MP even between equal priorities"
    );
    // The §6.1 fix is the monitor's doing, whoever dispatches.
    for policy in PolicyKind::ALL {
        assert_eq!(run(policy, NotifyMode::DeferredReschedule), 0, "{policy}");
    }
}

#[test]
fn paradigms_run_unchanged_on_the_mp_scheduler() {
    // The exploit helpers from the paradigms crate work as-is and
    // actually exploit the processors (we check wall-clock virtual
    // speedup through plain fork/join here to avoid a dev-dependency
    // cycle; the full parallel_map test lives in the root tests).
    let mut sim = Sim::with_cpus(SimConfig::default(), 4);
    let h = sim.fork_root("forker", Priority::DEFAULT, |ctx| {
        let t0 = ctx.now();
        let hs: Vec<_> = (0..4)
            .map(|i| {
                ctx.fork(&format!("w{i}"), |ctx| {
                    ctx.work(millis(50));
                })
                .unwrap()
            })
            .collect();
        for h in hs {
            ctx.join(h).unwrap();
        }
        ctx.now().since(t0)
    });
    sim.run(RunLimit::ToCompletion);
    let elapsed = h.into_result().unwrap().unwrap();
    // 200ms of work over (almost) 4 CPUs — the forker occupies one
    // only while forking/joining.
    assert!(
        elapsed < millis(120),
        "4-way fork/join took {elapsed}, no speedup?"
    );
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sim = Sim::with_cpus(SimConfig::default().with_seed(5), 3);
        let m = sim.monitor("m", 0u64);
        for i in 0..5 {
            let m = m.clone();
            let _ = sim.fork_root(
                &format!("t{i}"),
                Priority::of(3 + (i % 3) as u8),
                move |ctx| {
                    let mut rng = ctx.rng();
                    for _ in 0..30 {
                        ctx.work(micros(rng.next_below(2000)));
                        let mut g = ctx.enter(&m);
                        g.with_mut(|v| *v += 1);
                    }
                },
            );
        }
        sim.run(RunLimit::ToCompletion);
        (
            sim.now().as_micros(),
            sim.stats().switches,
            sim.stats().ml_contended,
        )
    };
    assert_eq!(run(), run());
}
