//! End-to-end tests of the chaos layer: every injectable fault observed
//! through the event stream and stats, every hazard detector driven by
//! a real simulated world (one inject-and-observe and one clean run
//! each), and the determinism guarantee — same seed, same
//! [`ChaosConfig`] ⇒ identical event trace and identical hazards.

use pcr::{
    millis, secs, ChaosConfig, Event, EventKind, HazardConfig, Priority, RunLimit, Sim, SimConfig,
    SimTime, VecSink, WaitOutcome,
};

/// Runs `setup`'s world under `cfg` with a [`VecSink`] attached and
/// returns the captured events plus the final run report.
fn run_capturing(cfg: SimConfig, setup: impl FnOnce(&mut Sim)) -> (Vec<Event>, pcr::RunReport) {
    let mut sim = Sim::new(cfg);
    sim.set_sink(Box::new(VecSink::default()));
    setup(&mut sim);
    let report = sim.run(RunLimit::For(secs(10)));
    let events = take_events(&mut sim);
    (events, report)
}

/// Takes back the [`VecSink`] installed on `sim`, for its events.
fn take_events(sim: &mut Sim) -> Vec<Event> {
    let sink = sim.take_sink().expect("a sink is installed").into_any();
    sink.downcast::<VecSink>().expect("a VecSink").events
}

fn has_kind(events: &[Event], pred: impl Fn(&EventKind) -> bool) -> bool {
    events.iter().any(|e| pred(&e.kind))
}

// ---------------------------------------------------------------------
// Injection mechanics
// ---------------------------------------------------------------------

#[test]
fn inactive_chaos_injects_nothing() {
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.monitor("m", 0u32);
    let cv = sim.condition(&m, "cv", Some(millis(10)));
    let _ = sim.fork_root("t", Priority::DEFAULT, move |ctx| {
        let h = ctx.fork("child", |_| ()).unwrap();
        ctx.join(h).unwrap();
        let mut g = ctx.enter(&m);
        let _ = g.wait(&cv);
    });
    sim.run(RunLimit::ToCompletion);
    let s = sim.stats();
    assert_eq!(s.chaos_fork_failures, 0);
    assert_eq!(s.chaos_spurious_wakeups, 0);
    assert_eq!(s.chaos_dropped_notifies, 0);
    assert_eq!(s.chaos_duplicated_notifies, 0);
    assert_eq!(s.chaos_stalls, 0);
}

#[test]
fn fork_failure_injection_is_visible() {
    let cfg = SimConfig::default().with_chaos(ChaosConfig::none().fail_forks(1.0));
    let mut forker = None;
    let (events, _) = run_capturing(cfg, |sim| {
        forker = Some(sim.fork_root("forker", Priority::DEFAULT, |ctx| {
            ctx.fork("doomed", |_| ()).is_err()
        }));
    });
    let failed = forker.unwrap().into_result().unwrap();
    assert_eq!(failed, Ok(true), "p=1.0 must fail");
    assert!(has_kind(&events, |k| matches!(
        k,
        EventKind::ChaosForkFail { .. }
    )));
}

#[test]
fn fork_outage_window_has_edges() {
    // Forks fail inside [0, 20ms) and succeed after.
    let chaos = ChaosConfig::none().fork_outage(SimTime::ZERO, SimTime::from_micros(20_000));
    let mut sim = Sim::new(SimConfig::default().with_chaos(chaos));
    let h = sim.fork_root("forker", Priority::DEFAULT, |ctx| {
        let inside = ctx.fork("early", |_| ()).is_err();
        ctx.sleep(millis(30));
        let after = ctx.fork("late", |_| ()).is_ok();
        (inside, after)
    });
    sim.run(RunLimit::For(secs(1)));
    assert_eq!(h.into_result().unwrap().unwrap(), (true, true));
    assert_eq!(sim.stats().chaos_fork_failures, 1);
}

#[test]
fn dropped_notify_forces_timeout_rescue() {
    let cfg = SimConfig::default().with_chaos(ChaosConfig::none().drop_notifies(1.0));
    let mut sim = Sim::new(cfg);
    sim.set_sink(Box::new(VecSink::default()));
    let m = sim.monitor("m", false);
    let cv = sim.condition(&m, "cv", Some(millis(20)));
    let (m2, cv2) = (m.clone(), cv.clone());
    let h = sim.fork_root("waiter", Priority::of(5), move |ctx| {
        let mut g = ctx.enter(&m2);
        let mut outcomes = Vec::new();
        while !g.with(|done| *done) {
            outcomes.push(g.wait(&cv2));
        }
        outcomes
    });
    let _ = sim.fork_root("notifier", Priority::of(3), move |ctx| {
        ctx.work(millis(2));
        let mut g = ctx.enter(&m);
        g.with_mut(|done| *done = true);
        g.notify(&cv); // Dropped: the waiter's timeout must rescue it.
    });
    let report = sim.run(RunLimit::For(secs(5)));
    assert!(!report.deadlocked(), "timeout must rescue the waiter");
    let outcomes = h.into_result().unwrap().unwrap();
    assert!(
        outcomes.contains(&WaitOutcome::TimedOut),
        "outcomes: {outcomes:?}"
    );
    assert!(sim.stats().chaos_dropped_notifies >= 1);
    let events = take_events(&mut sim);
    assert!(has_kind(&events, |k| matches!(
        k,
        EventKind::NotifyDropped { .. }
    )));
    // The dropped notify must not masquerade as a delivered one.
    assert!(!has_kind(&events, |k| matches!(
        k,
        EventKind::Notify { woken: Some(_), .. }
    )));
}

#[test]
fn duplicated_notify_wakes_a_second_waiter() {
    let cfg = SimConfig::default().with_chaos(ChaosConfig::none().duplicate_notifies(1.0));
    let mut sim = Sim::new(cfg);
    sim.set_sink(Box::new(VecSink::default()));
    let m = sim.monitor("m", 0u32);
    let cv = sim.condition(&m, "cv", None);
    for w in 0..2 {
        let (m, cv) = (m.clone(), cv.clone());
        let _ = sim.fork_root(&format!("w{w}"), Priority::of(5), move |ctx| {
            let mut g = ctx.enter(&m);
            // Mesa discipline: the predicate makes the duplicate harmless.
            g.wait_until(&cv, |tokens| *tokens > 0);
            g.with_mut(|tokens| *tokens -= 1);
        });
    }
    let (m2, cv2) = (m.clone(), cv.clone());
    let _ = sim.fork_root("notifier", Priority::of(3), move |ctx| {
        for _ in 0..2 {
            let mut g = ctx.enter(&m2);
            g.with_mut(|tokens| *tokens += 1);
            g.notify(&cv2);
            drop(g);
            ctx.work(millis(1));
        }
    });
    let report = sim.run(RunLimit::For(secs(5)));
    assert!(!report.deadlocked());
    assert!(sim.stats().chaos_duplicated_notifies >= 1);
    let events = take_events(&mut sim);
    assert!(has_kind(&events, |k| matches!(
        k,
        EventKind::NotifyDuplicated { .. }
    )));
}

#[test]
fn stall_freezes_the_named_thread() {
    // "victim" ticks every 1ms; stalled for [10ms, 60ms) it must miss
    // ~50 ticks relative to an unstalled run.
    let tick = |ctx: &pcr::ThreadCtx| {
        let mut n = 0u64;
        while ctx.now() < SimTime::from_micros(100_000) {
            ctx.sleep_precise(millis(1));
            n += 1;
        }
        n
    };
    let clean = {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("victim", Priority::DEFAULT, tick);
        sim.run(RunLimit::For(secs(1)));
        h.into_result().unwrap().unwrap()
    };
    let chaos = ChaosConfig::none().stall("victim", SimTime::from_micros(10_000), millis(50));
    let mut sim = Sim::new(SimConfig::default().with_chaos(chaos));
    sim.set_sink(Box::new(VecSink::default()));
    let h = sim.fork_root("victim", Priority::DEFAULT, tick);
    sim.run(RunLimit::For(secs(1)));
    let stalled = h.into_result().unwrap().unwrap();
    assert_eq!(sim.stats().chaos_stalls, 1);
    assert!(
        stalled + 40 <= clean,
        "stall removed too few ticks: clean={clean} stalled={stalled}"
    );
    let events = take_events(&mut sim);
    assert!(has_kind(&events, |k| matches!(
        k,
        EventKind::ChaosStall { .. }
    )));
}

#[test]
fn timer_jitter_delays_wakeups_within_bound() {
    let jitter = millis(5);
    let cfg = SimConfig::default().with_chaos(ChaosConfig::none().jitter_timers(jitter));
    let mut sim = Sim::new(cfg);
    let h = sim.fork_root("sleeper", Priority::DEFAULT, move |ctx| {
        let mut actual = Vec::new();
        for _ in 0..20 {
            let before = ctx.now();
            ctx.sleep_precise(millis(10));
            actual.push(ctx.now().since(before));
        }
        actual
    });
    sim.run(RunLimit::ToCompletion);
    let slept = h.into_result().unwrap().unwrap();
    for d in &slept {
        // Jitter only ever delays a wakeup, and by at most `jitter`.
        assert!(*d >= millis(10), "woke early: {d}");
        assert!(*d <= millis(10) + jitter, "jitter exceeded bound: {d}");
    }
    // With up to 5ms of jitter over 20 sleeps, at least one wakeup must
    // actually have been perturbed.
    assert!(
        slept.iter().any(|d| *d > millis(10)),
        "jitter never bit: {slept:?}"
    );
}

#[test]
fn spurious_wakeup_surfaces_as_spurious_outcome() {
    let chaos = ChaosConfig::none().spurious_wakeups(1.0);
    let cfg = SimConfig::default().with_chaos(chaos);
    let mut sim = Sim::new(cfg);
    sim.set_sink(Box::new(VecSink::default()));
    let m = sim.monitor("m", false);
    let cv = sim.condition(&m, "cv", None);
    let (m2, cv2) = (m.clone(), cv.clone());
    let h = sim.fork_root("waiter", Priority::of(5), move |ctx| {
        let mut g = ctx.enter(&m2);
        let mut saw_spurious = false;
        while !g.with(|done| *done) {
            saw_spurious |= g.wait(&cv2) == WaitOutcome::Spurious;
        }
        saw_spurious
    });
    let _ = sim.fork_root("notifier", Priority::of(3), move |ctx| {
        ctx.work(millis(20));
        let mut g = ctx.enter(&m);
        g.with_mut(|done| *done = true);
        g.notify(&cv);
    });
    let report = sim.run(RunLimit::For(secs(5)));
    assert!(!report.deadlocked());
    assert!(
        h.into_result().unwrap().unwrap(),
        "no Spurious outcome seen"
    );
    assert!(sim.stats().chaos_spurious_wakeups >= 1);
    let events = take_events(&mut sim);
    assert!(has_kind(&events, |k| matches!(
        k,
        EventKind::SpuriousWakeup { .. }
    )));
}

// ---------------------------------------------------------------------
// Hazard detectors, end to end: inject-and-observe + clean runs
// ---------------------------------------------------------------------

fn detect_cfg() -> SimConfig {
    SimConfig::default().with_hazard_detection(HazardConfig::default())
}

#[test]
fn detects_wait_without_recheck() {
    // The waiter treats any wakeup as a delivered notify (no predicate
    // loop) — exactly the §5.3 mistake. A forced spurious wakeup makes
    // it proceed without the state it waited for.
    let cfg = detect_cfg().with_chaos(ChaosConfig::none().spurious_wakeups(1.0));
    let mut sim = Sim::new(cfg);
    let m = sim.monitor("m", false);
    let cv = sim.condition(&m, "cv", None);
    let (m2, cv2) = (m.clone(), cv.clone());
    let _ = sim.fork_root("sloppy", Priority::of(5), move |ctx| {
        let mut g = ctx.enter(&m2);
        let _ = g.wait(&cv2); // WAIT without re-checking: the §5.3 bug.
    });
    let _ = sim.fork_root("notifier", Priority::of(3), move |ctx| {
        ctx.work(millis(20));
        let g = ctx.enter(&m);
        g.notify(&cv);
    });
    let report = sim.run(RunLimit::For(secs(5)));
    assert!(
        report.hazards.wait_without_recheck >= 1,
        "hazards: {:?}",
        report.hazards
    );
    assert!(report.hazardous());
}

#[test]
fn clean_predicate_loop_never_flags_recheck() {
    // Same chaos, but the waiter uses wait_until: every spurious wakeup
    // funnels straight back into WAIT, so the detector stays quiet.
    let cfg = detect_cfg().with_chaos(ChaosConfig::none().spurious_wakeups(1.0));
    let mut sim = Sim::new(cfg);
    let m = sim.monitor("m", false);
    let cv = sim.condition(&m, "cv", None);
    let (m2, cv2) = (m.clone(), cv.clone());
    let _ = sim.fork_root("careful", Priority::of(5), move |ctx| {
        let mut g = ctx.enter(&m2);
        g.wait_until(&cv2, |done| *done);
    });
    let _ = sim.fork_root("notifier", Priority::of(3), move |ctx| {
        ctx.work(millis(20));
        let mut g = ctx.enter(&m);
        g.with_mut(|done| *done = true);
        g.notify(&cv);
    });
    let report = sim.run(RunLimit::For(secs(5)));
    assert_eq!(
        report.hazards.wait_without_recheck, 0,
        "hazards: {:?}",
        report.hazards
    );
}

#[test]
fn detects_naked_notify() {
    // NOTIFY fires before the waiter reaches WAIT (outside any shared
    // predicate discipline); the waiter then waits and times out — the
    // §5.3 naked-notify signature. On two CPUs the latecomer is already
    // at the monitor's door when the NOTIFY evaporates.
    for cpus in [1, 2] {
        let mut sim = Sim::with_cpus(detect_cfg(), cpus);
        let m = sim.monitor("m", 0u32);
        let cv = sim.condition(&m, "cv", Some(millis(5)));
        let (m2, cv2) = (m.clone(), cv.clone());
        let _ = sim.fork_root("notifier", Priority::of(5), move |ctx| {
            let g = ctx.enter(&m2);
            g.notify(&cv2); // Nobody is waiting yet: the wakeup evaporates.
            drop(g);
            ctx.sleep(millis(100)); // Free the CPU so the latecomer waits
                                    // inside the naked window.
        });
        let _ = sim.fork_root("latecomer", Priority::of(4), move |ctx| {
            let mut g = ctx.enter(&m);
            let _ = g.wait(&cv);
        });
        let report = sim.run(RunLimit::For(secs(1)));
        assert!(
            report.hazards.naked_notifies >= 1,
            "{cpus} cpus: hazards: {:?}",
            report.hazards
        );
    }
}

#[test]
fn clean_ordered_notify_is_not_naked() {
    // The waiter is already waiting when the notify arrives: no hazard.
    let mut sim = Sim::new(detect_cfg());
    let m = sim.monitor("m", 0u32);
    let cv = sim.condition(&m, "cv", Some(millis(50)));
    let (m2, cv2) = (m.clone(), cv.clone());
    let _ = sim.fork_root("waiter", Priority::of(5), move |ctx| {
        let mut g = ctx.enter(&m2);
        let _ = g.wait(&cv2);
    });
    let _ = sim.fork_root("notifier", Priority::of(3), move |ctx| {
        ctx.work(millis(2));
        let g = ctx.enter(&m);
        g.notify(&cv);
    });
    let report = sim.run(RunLimit::For(secs(1)));
    assert_eq!(
        report.hazards.naked_notifies, 0,
        "hazards: {:?}",
        report.hazards
    );
}

#[test]
fn detects_livelock_yield_storm() {
    // §5.2's busy-wait-by-yield: a thread burning its slices on YIELD
    // without any synchronization progress.
    let mut sim = Sim::new(detect_cfg());
    let _ = sim.fork_root("spinner", Priority::DEFAULT, |ctx| {
        for _ in 0..60 {
            ctx.yield_now();
        }
    });
    let _ = sim.fork_root("peer", Priority::DEFAULT, |ctx| ctx.work(millis(5)));
    let report = sim.run(RunLimit::For(secs(1)));
    assert!(
        report.hazards.livelocks >= 1,
        "hazards: {:?}",
        report.hazards
    );
}

#[test]
fn clean_modest_yielding_is_not_livelock() {
    let mut sim = Sim::new(detect_cfg());
    let _ = sim.fork_root("polite", Priority::DEFAULT, |ctx| {
        for _ in 0..20 {
            ctx.yield_now();
        }
    });
    let _ = sim.fork_root("peer", Priority::DEFAULT, |ctx| ctx.work(millis(5)));
    let report = sim.run(RunLimit::For(secs(1)));
    assert_eq!(report.hazards.livelocks, 0, "hazards: {:?}", report.hazards);
}

#[test]
fn detects_spurious_conflict_storm() {
    // §6.1: under NOTIFY's Immediate mode, BROADCAST readies twelve
    // waiters while the broadcaster still holds the monitor — every
    // waiter is dispatched just to block again on the lock. (Deferred
    // reschedule, the paper's fix, hands the lock off directly and
    // cannot storm — see the clean counterpart.)
    let mut sim = Sim::new(detect_cfg().with_notify_mode(pcr::NotifyMode::Immediate));
    let m = sim.monitor("m", 0u32);
    let cv = sim.condition(&m, "cv", None);
    for w in 0..12 {
        let (m, cv) = (m.clone(), cv.clone());
        let _ = sim.fork_root(&format!("w{w}"), Priority::of(5), move |ctx| {
            let mut g = ctx.enter(&m);
            g.wait_until(&cv, |v| *v > 0);
        });
    }
    let _ = sim.fork_root("broadcaster", Priority::of(3), move |ctx| {
        let mut g = ctx.enter(&m);
        g.with_mut(|v| *v = 1);
        g.broadcast(&cv);
        ctx.work(millis(5)); // Keep holding: every wakee conflicts.
    });
    let report = sim.run(RunLimit::For(secs(1)));
    assert!(
        report.hazards.spurious_conflict_storms >= 1,
        "hazards: {:?}",
        report.hazards
    );
}

#[test]
fn clean_small_broadcast_is_not_a_storm() {
    // Same Immediate mode, but only three waiters conflict — far below
    // the storm threshold.
    let mut sim = Sim::new(detect_cfg().with_notify_mode(pcr::NotifyMode::Immediate));
    let m = sim.monitor("m", 0u32);
    let cv = sim.condition(&m, "cv", None);
    for w in 0..3 {
        let (m, cv) = (m.clone(), cv.clone());
        let _ = sim.fork_root(&format!("w{w}"), Priority::of(5), move |ctx| {
            let mut g = ctx.enter(&m);
            g.wait_until(&cv, |v| *v > 0);
        });
    }
    let _ = sim.fork_root("broadcaster", Priority::of(3), move |ctx| {
        let mut g = ctx.enter(&m);
        g.with_mut(|v| *v = 1);
        g.broadcast(&cv);
        ctx.work(millis(5));
    });
    let report = sim.run(RunLimit::For(secs(1)));
    assert_eq!(
        report.hazards.spurious_conflict_storms, 0,
        "hazards: {:?}",
        report.hazards
    );
}

#[test]
fn detects_starvation_via_directed_donation() {
    // §6.2's proportional-scheduling hack gone wrong: a high-priority
    // donor keeps handing its slice to a low-priority grinder
    // (shielded from preemption), so a middle-priority thread sits
    // ready far past the threshold while lower-priority code runs.
    let cfg = SimConfig::default().with_hazard_detection(HazardConfig {
        starvation_threshold: millis(100),
        ..HazardConfig::default()
    });
    let mut sim = Sim::new(cfg);
    let grinder = sim.fork_root("grinder", Priority::of(2), |ctx| ctx.work(secs(2)));
    let grinder_tid = grinder.tid();
    let _ = sim.fork_root("victim", Priority::of(4), |ctx| ctx.work(secs(1)));
    let _ = sim.fork_root("donor", Priority::of(6), move |ctx| {
        for _ in 0..8 {
            ctx.directed_yield(grinder_tid, millis(50));
        }
    });
    let report = sim.run(RunLimit::For(secs(1)));
    assert!(
        report.hazards.starvations >= 1,
        "hazards: {:?}",
        report.hazards
    );
}

#[test]
fn clean_priority_scheduling_has_no_starvation() {
    let mut sim = Sim::new(detect_cfg());
    let _ = sim.fork_root("hi", Priority::of(5), |ctx| ctx.work(secs(1)));
    let _ = sim.fork_root("lo", Priority::of(3), |ctx| ctx.work(secs(1)));
    let report = sim.run(RunLimit::For(secs(3)));
    assert_eq!(
        report.hazards.starvations, 0,
        "hazards: {:?}",
        report.hazards
    );
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

/// A busy world that exercises every injection path and tolerates all
/// of them (timeout-guarded waits, fork errors handled, predicates
/// re-checked).
fn chaotic_world(sim: &mut Sim) {
    let m = sim.monitor("m", 0u64);
    let cv = sim.condition(&m, "cv", Some(millis(10)));
    for t in 0..4 {
        let (m, cv) = (m.clone(), cv.clone());
        let _ = sim.fork_root(
            &format!("t{t}"),
            Priority::of(3 + (t % 3) as u8),
            move |ctx| {
                let mut rng = ctx.rng();
                loop {
                    ctx.work(pcr::micros(rng.next_below(800)));
                    let mut g = ctx.enter(&m);
                    g.with_mut(|v| *v += 1);
                    g.notify(&cv);
                    let _ = g.wait(&cv);
                    drop(g);
                    if rng.next_below(4) == 0 {
                        if let Ok(h) = ctx.fork("child", |ctx| ctx.work(millis(1))) {
                            let _ = ctx.join(h);
                        }
                    }
                    ctx.sleep(millis(2));
                }
            },
        );
    }
}

fn full_chaos() -> ChaosConfig {
    ChaosConfig::none()
        .fail_forks(0.3)
        .spurious_wakeups(0.3)
        .drop_notifies(0.2)
        .duplicate_notifies(0.2)
        .jitter_timers(millis(3))
        .stall("t0", SimTime::from_micros(100_000), millis(50))
}

#[test]
fn same_seed_same_chaos_replays_identically() {
    let run = || {
        let cfg = SimConfig::default()
            .with_seed(0xD15EA5E)
            .with_chaos(full_chaos())
            .with_hazard_detection(HazardConfig::default());
        let mut sim = Sim::new(cfg);
        sim.set_sink(Box::new(VecSink::default()));
        chaotic_world(&mut sim);
        let report = sim.run(RunLimit::For(secs(2)));
        let events = take_events(&mut sim);
        (events, report.hazards, sim.stats().clone())
    };
    let (ev_a, hz_a, st_a) = run();
    let (ev_b, hz_b, st_b) = run();
    assert_eq!(ev_a.len(), ev_b.len(), "trace lengths diverged");
    assert_eq!(ev_a, ev_b, "event traces diverged");
    assert_eq!(hz_a, hz_b, "hazard tallies diverged");
    assert_eq!(st_a.switches, st_b.switches);
    assert_eq!(st_a.chaos_spurious_wakeups, st_b.chaos_spurious_wakeups);
    assert_eq!(st_a.chaos_dropped_notifies, st_b.chaos_dropped_notifies);
    assert_eq!(
        st_a.chaos_duplicated_notifies,
        st_b.chaos_duplicated_notifies
    );
    assert_eq!(st_a.chaos_fork_failures, st_b.chaos_fork_failures);
    // The chaos actually did things in this world.
    assert!(st_a.chaos_spurious_wakeups > 0, "stats: {st_a:?}");
    assert!(st_a.chaos_stalls > 0, "stats: {st_a:?}");
}

#[test]
fn different_seeds_diverge_under_chaos() {
    let run = |seed: u64| {
        let cfg = SimConfig::default()
            .with_seed(seed)
            .with_chaos(full_chaos());
        let mut sim = Sim::new(cfg);
        chaotic_world(&mut sim);
        sim.run(RunLimit::For(secs(2)));
        sim.stats().clone()
    };
    let a = run(1);
    let b = run(2);
    // Not a strict requirement of any single counter, but across all
    // chaos counters two seeds virtually never tie.
    assert!(
        a.switches != b.switches
            || a.chaos_spurious_wakeups != b.chaos_spurious_wakeups
            || a.chaos_dropped_notifies != b.chaos_dropped_notifies,
        "two different seeds produced identical behaviour: {a:?}"
    );
}

#[test]
fn clean_world_is_hazard_free_with_detection_on() {
    // The acceptance-criteria control: detectors on, no chaos, a
    // disciplined Mesa producer/consumer world — zero hazards of any
    // kind. The producer outranks the consumers so each notify resolves
    // before the wakee races the lock, and every wait sits in a
    // predicate loop.
    let mut sim = Sim::new(detect_cfg());
    let m = sim.monitor("tokens", 0u64);
    let cv = sim.condition(&m, "cv", None);
    for c in 0..2 {
        let (m, cv) = (m.clone(), cv.clone());
        let _ = sim.fork_root(&format!("consumer{c}"), Priority::of(4), move |ctx| {
            for _ in 0..100 {
                let mut g = ctx.enter(&m);
                g.wait_until(&cv, |tokens| *tokens > 0);
                g.with_mut(|tokens| *tokens -= 1);
            }
        });
    }
    let (m2, cv2) = (m.clone(), cv.clone());
    let _ = sim.fork_root("producer", Priority::of(5), move |ctx| {
        for _ in 0..200 {
            let mut g = ctx.enter(&m2);
            g.with_mut(|tokens| *tokens += 1);
            g.notify(&cv2);
            drop(g);
            ctx.sleep(millis(1));
        }
    });
    let report = sim.run(RunLimit::For(secs(5)));
    assert!(!report.deadlocked());
    let probe = sim.fork_root("probe", Priority::of(6), move |ctx| {
        ctx.enter(&m).with(|tokens| *tokens)
    });
    sim.run(RunLimit::ToCompletion);
    assert_eq!(probe.into_result().unwrap().unwrap(), 0, "tokens leaked");
    assert_eq!(report.hazards.total(), 0, "hazards: {:?}", report.hazards);
    assert!(!report.hazardous());
}

// ---------------------------------------------------------------------
// PCT priority perturbation
// ---------------------------------------------------------------------

/// Runs the chaotic world under `chaos` on `cpus` processors and returns
/// the captured events, the recorded fault schedule, and the final stats.
fn run_pct(
    chaos: ChaosConfig,
    seed: u64,
    cpus: usize,
) -> (Vec<Event>, pcr::FaultSchedule, pcr::SimStats) {
    let cfg = SimConfig::default().with_seed(seed).with_chaos(chaos);
    let mut sim = Sim::with_cpus(cfg, cpus);
    sim.set_sink(Box::new(VecSink::default()));
    chaotic_world(&mut sim);
    sim.run(RunLimit::For(secs(2)));
    let schedule = sim.fault_schedule();
    let stats = sim.stats().clone();
    let events = take_events(&mut sim);
    (events, schedule, stats)
}

#[test]
fn pct_perturbs_priorities_and_records_decisions() {
    let (events, schedule, stats) = run_pct(ChaosConfig::none().pct(8, 512), 0xBEEF, 1);
    assert!(
        stats.chaos_priority_changes > 0,
        "no PCT change landed inside the run: {stats:?}"
    );
    assert!(
        has_kind(&events, |k| matches!(k, EventKind::SetPriority { .. })),
        "PCT changes must surface as SetPriority events"
    );
    let pct_decisions = schedule
        .decisions
        .iter()
        .filter(|d| d.kind == pcr::FaultSiteKind::PriorityChange)
        .count() as u64;
    assert_eq!(pct_decisions, stats.chaos_priority_changes);
    // Every recorded parameter is a legal priority level.
    for d in &schedule.decisions {
        if d.kind == pcr::FaultSiteKind::PriorityChange {
            assert!((1..=7).contains(&d.param_us), "level {}", d.param_us);
        }
    }
}

#[test]
fn pct_composes_with_chaos_and_replays_byte_identically() {
    let chaos = full_chaos().pct(6, 1024);
    let (ev_a, sched, st_a) = run_pct(chaos, 0xD15EA5E, 1);
    assert!(st_a.chaos_priority_changes > 0, "stats: {st_a:?}");
    // Scripted replay: no probabilities, no RNG — identical trace.
    let (ev_b, sched_b, st_b) = run_pct(ChaosConfig::none().scripted(sched.clone()), 0xD15EA5E, 1);
    assert_eq!(ev_a, ev_b, "scripted PCT replay diverged");
    assert_eq!(sched, sched_b, "replayed schedule is not a fixed point");
    assert_eq!(st_a.chaos_priority_changes, st_b.chaos_priority_changes);
}

#[test]
fn pct_with_zero_changes_matches_a_clean_run() {
    let (ev_none, _, _) = run_pct(ChaosConfig::none(), 7, 1);
    let (ev_zero, sched, stats) = run_pct(ChaosConfig::none().pct(0, 1024), 7, 1);
    assert_eq!(ev_none, ev_zero, "an empty PCT config must be inert");
    assert!(sched.is_empty());
    assert_eq!(stats.chaos_priority_changes, 0);
}

#[test]
fn two_cpus_inject_every_fault_and_replay_it_from_the_script() {
    // Two waiters on the CV at a NOTIFY are rare here: duplicate each.
    let chaos = full_chaos().duplicate_notifies(1.0).pct(6, 1024);
    let (ev_a, sched, st) = run_pct(chaos, 0xD15EA5E, 2);
    let injected = [
        st.chaos_fork_failures,
        st.chaos_spurious_wakeups,
        st.chaos_dropped_notifies,
        st.chaos_duplicated_notifies,
        st.chaos_stalls,
        st.chaos_priority_changes,
    ];
    assert!(injected.iter().all(|&n| n > 0), "a fault never bit: {st:?}");
    let jittered = |d: &pcr::FaultDecision| d.kind == pcr::FaultSiteKind::TimerJitter;
    assert!(sched.decisions.iter().any(jittered), "no timer jitter");
    let script = ChaosConfig::none().scripted(sched.clone());
    let (ev_b, sched_b, _) = run_pct(script, 0xD15EA5E, 2);
    assert_eq!(ev_a, ev_b, "scripted replay diverged on two CPUs");
    assert_eq!(sched, sched_b, "replayed schedule is not a fixed point");
}

#[test]
fn waits_ended_by_every_route_replay_from_the_script_on_one_and_two_cpus() {
    // A wait's timers are cancelled by whatever ends it. With NOTIFYs
    // dropped and spurious wakeups armed, a wait here ends by a NOTIFY with
    // one or both timers pending, by its timeout with the spurious wakeup
    // pending, or by the spurious wakeup with the timeout pending.
    let chaos = ChaosConfig::none().spurious_wakeups(0.3).drop_notifies(0.3);
    for cpus in [1, 2] {
        let (ev_a, sched, st) = run_pct(chaos.clone(), 0xD15EA5E, cpus);
        let ended_by = |route: WaitOutcome| {
            let woke = |e: &&Event| matches!(e.kind, EventKind::CvWake { outcome, .. } if outcome == route);
            ev_a.iter().filter(woke).count() as u64
        };
        let (notified, timed_out, spurious) = (
            ended_by(WaitOutcome::Notified),
            ended_by(WaitOutcome::TimedOut),
            ended_by(WaitOutcome::Spurious),
        );
        assert!(notified > 0 && timed_out > 0 && spurious > 0, "{st:?}");
        assert!(st.chaos_dropped_notifies > 0, "{st:?}");
        // Each wait ended once, bar those still on at the end of the run.
        let ended = notified + timed_out + spurious;
        assert!(ended <= st.cv_waits && st.cv_waits <= ended + 4, "{st:?}");
        let script = ChaosConfig::none().scripted(sched.clone());
        let (ev_b, sched_b, _) = run_pct(script, 0xD15EA5E, cpus);
        assert_eq!(ev_a, ev_b, "scripted replay diverged on {cpus} CPUs");
        assert_eq!(sched, sched_b, "not a fixed point on {cpus} CPUs");
    }
}
