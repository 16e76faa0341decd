//! End-to-end tests of the resilience primitives in `pcr`: fault
//! schedules recorded from probabilistic chaos runs and replayed as
//! scripts (byte-identical), the gated stall-while-holding trigger, the
//! live wait-for graph, and the two recovery levers a supervisor pulls —
//! [`Sim::fail_pending_forks`] (§5.4) and [`Sim::rejuvenate`] (§5.2).

use std::sync::{Arc, Mutex};

use pcr::{
    micros, millis, secs, BlockKind, ChaosConfig, Event, EventKind, FaultDecision, FaultSchedule,
    FaultSiteKind, Priority, RunLimit, Sim, SimConfig, SimTime, StopReason, VecSink,
};

fn take_events(sim: &mut Sim) -> Vec<Event> {
    sim.take_sink()
        .unwrap()
        .into_any()
        .downcast::<VecSink>()
        .unwrap()
        .events
}

/// A busy world that exercises every injection path and tolerates all of
/// them (timeout-guarded waits, fork errors handled, predicates
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
                    ctx.work(micros(rng.next_below(800)));
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
fn recorded_schedule_replays_byte_identically_without_rng() {
    // Pass 1: probabilistic chaos, recording the fault schedule.
    let cfg = SimConfig::default()
        .with_seed(0xFA57)
        .with_chaos(full_chaos());
    let mut sim = Sim::new(cfg);
    sim.set_sink(Box::new(VecSink::default()));
    chaotic_world(&mut sim);
    sim.run(RunLimit::For(secs(2)));
    let recorded = sim.fault_schedule();
    let events_a = take_events(&mut sim);
    let stats_a = sim.stats().clone();
    assert!(
        !recorded.decisions.is_empty(),
        "chaos at these rates must record decisions"
    );
    assert_eq!(recorded.stalls.len(), 1);

    // Pass 2: same SimConfig, but chaos replaced by the recorded script
    // (no probabilities left anywhere).
    let cfg = SimConfig::default()
        .with_seed(0xFA57)
        .with_chaos(ChaosConfig::none().scripted(recorded.clone()));
    let mut sim = Sim::new(cfg);
    sim.set_sink(Box::new(VecSink::default()));
    chaotic_world(&mut sim);
    sim.run(RunLimit::For(secs(2)));
    let events_b = take_events(&mut sim);
    let stats_b = sim.stats().clone();

    assert_eq!(events_a, events_b, "scripted replay diverged from original");
    assert_eq!(stats_a.switches, stats_b.switches);
    assert_eq!(stats_a.chaos_fork_failures, stats_b.chaos_fork_failures);
    assert_eq!(
        stats_a.chaos_spurious_wakeups,
        stats_b.chaos_spurious_wakeups
    );
    assert_eq!(
        stats_a.chaos_dropped_notifies,
        stats_b.chaos_dropped_notifies
    );
    assert_eq!(
        stats_a.chaos_duplicated_notifies,
        stats_b.chaos_duplicated_notifies
    );
    assert_eq!(stats_a.chaos_stalls, stats_b.chaos_stalls);
    // The replay run's own recorded schedule equals the script: replay
    // is a fixed point.
    assert_eq!(sim.fault_schedule(), recorded);
}

#[test]
fn scripted_fork_fail_hits_exactly_the_listed_site() {
    let schedule = FaultSchedule {
        decisions: vec![FaultDecision {
            kind: FaultSiteKind::ForkFail,
            site: 0,
            param_us: 0,
        }],
        stalls: Vec::new(),
    };
    let cfg = SimConfig::default().with_chaos(ChaosConfig::none().scripted(schedule));
    let mut sim = Sim::new(cfg);
    let h = sim.fork_root("forker", Priority::DEFAULT, |ctx| {
        let first = ctx.fork("a", |_| ()).is_err();
        let second = ctx.fork("b", |_| ()).is_ok();
        (first, second)
    });
    sim.run(RunLimit::For(secs(1)));
    assert_eq!(h.into_result().unwrap().unwrap(), (true, true));
    assert_eq!(sim.stats().fork_failures, 1);
}

#[test]
fn fail_pending_forks_drains_the_wait_queue() {
    // Cap the table so the fork blocks (WaitForResources), with an
    // eternal peer guaranteeing the slot never frees on its own.
    let cfg = SimConfig::default().with_max_threads(2);
    let mut sim = Sim::new(cfg);
    let _ = sim.fork_root("eternal", Priority::of(3), |ctx| loop {
        ctx.sleep(millis(5));
    });
    let h = sim.fork_root("forker", Priority::of(4), |ctx| {
        // Blocks in ForkWait: the table is full and nobody ever exits.
        ctx.fork("overflow", |_| ()).is_err()
    });
    sim.run(RunLimit::For(millis(50)));
    let g = sim.wait_for_graph();
    assert_eq!(g.threads.len(), 1, "{}", g.render());
    assert_eq!(g.threads[0].kind.tag(), "fork");
    assert!(
        !g.wedged(millis(20)).is_empty(),
        "forker should be wedged: {}",
        g.render()
    );

    assert_eq!(sim.fail_pending_forks(), 1);
    sim.run(RunLimit::For(millis(50)));
    assert!(
        h.into_result().unwrap().unwrap(),
        "drained fork must surface as ResourcesExhausted"
    );
    assert!(sim.wait_for_graph().wedged(millis(20)).is_empty());
}

#[test]
fn stall_while_holding_wedges_waiters_and_rejuvenate_recovers() {
    // "holder" takes the monitor for 2ms every 10ms; "watcher" takes it
    // briefly every 5ms. The gated stall must catch holder *inside* the
    // monitor, wedging watcher in MutexWait behind a Stalled root.
    let chaos = ChaosConfig::none().stall_while_holding(
        "holder",
        "shared",
        SimTime::from_micros(20_000),
        secs(30),
    );
    let cfg = SimConfig::default().with_chaos(chaos);
    let mut sim = Sim::new(cfg);
    let m = sim.monitor("shared", 0u64);
    let m2 = m.clone();
    let _ = sim.fork_root("holder", Priority::of(4), move |ctx| loop {
        let mut g = ctx.enter(&m2);
        ctx.work(millis(2));
        g.with_mut(|v| *v += 1);
        drop(g);
        ctx.sleep_precise(millis(10));
    });
    let h = sim.fork_root("watcher", Priority::of(5), move |ctx| {
        let mut n = 0u64;
        loop {
            ctx.sleep_precise(millis(5));
            let g = ctx.enter(&m);
            n += g.with(|v| *v);
            if ctx.now() >= SimTime::from_micros(400_000) {
                return n;
            }
        }
    });
    sim.run(RunLimit::For(millis(200)));

    let g = sim.wait_for_graph();
    assert_eq!(sim.stats().chaos_stalls, 1, "gated stall never fired");
    assert_eq!(g.stalled.len(), 1, "{}", g.render());
    let (stalled_tid, stalled_name) = g.stalled[0].clone();
    assert_eq!(stalled_name, "holder");
    let wedged = g.wedged(millis(100));
    assert_eq!(wedged.len(), 1, "{}", g.render());
    assert_eq!(wedged[0].name, "watcher");
    assert!(matches!(wedged[0].kind, BlockKind::Monitor));
    assert_eq!(wedged[0].resource, "shared");
    // The chain from the wedged waiter leads to the stalled holder.
    assert_eq!(g.root_of(wedged[0].tid), Some(stalled_tid));

    // The §5.2 lever: un-stall the unresponsive component and the world
    // finishes its work.
    assert!(sim.rejuvenate(stalled_tid));
    sim.run(RunLimit::For(millis(300)));
    let n = h.into_result().unwrap().unwrap();
    assert!(n > 0, "watcher never ran after rejuvenation");
    assert!(sim.wait_for_graph().wedged(millis(100)).is_empty());
}

#[test]
fn rejuvenate_clears_a_pending_stall_too() {
    // The stall fires at 5ms, mid-sleep (sleeps span [4ms, 8ms)), so it
    // parks as stall_pending; rejuvenation must cancel it before it
    // ever applies.
    let chaos = ChaosConfig::none().stall("sleeper", SimTime::from_micros(5_000), secs(10));
    let mut sim = Sim::new(SimConfig::default().with_chaos(chaos));
    let h = sim.fork_root("sleeper", Priority::DEFAULT, |ctx| {
        let mut ticks = 0u64;
        for _ in 0..5 {
            ctx.sleep_precise(millis(4));
            ticks += 1;
        }
        ticks
    });
    sim.run(RunLimit::For(millis(6)));
    assert!(sim.rejuvenate(h.tid()), "pending stall should be cleared");
    sim.run(RunLimit::For(secs(1)));
    assert_eq!(sim.stats().chaos_stalls, 0, "stall must never apply");
    assert_eq!(h.into_result().unwrap().unwrap(), 5);
}

#[test]
fn a_rejuvenated_stalls_timer_does_not_end_a_later_stall() {
    // Stalled at 10 ms until 110 ms, rejuvenated at 30 ms, stalled again
    // at 50 ms until 250 ms: the first stall's end left the wheel with
    // the first stall, so it cannot cut the second one short at 110 ms.
    let chaos = ChaosConfig::none()
        .stall("spinner", SimTime::ZERO + millis(10), millis(100))
        .stall("spinner", SimTime::ZERO + millis(50), millis(200));
    let mut sim = Sim::new(SimConfig::default().with_chaos(chaos));
    let ran = Arc::new(Mutex::new(Vec::new()));
    let ran2 = Arc::clone(&ran);
    let h = sim.fork_root("spinner", Priority::DEFAULT, move |ctx| loop {
        ctx.work(millis(1));
        ran2.lock().unwrap().push(ctx.now());
    });
    let ms = |n| SimTime::ZERO + millis(n);
    sim.run(RunLimit::Until(ms(30)));
    assert!(sim.rejuvenate(h.tid()));
    sim.run(RunLimit::Until(ms(300)));
    assert_eq!(sim.stats().chaos_stalls, 2);
    let ran = ran.lock().unwrap();
    let resumed = ran.iter().find(|&&t| t > ms(50)).copied();
    assert!(
        resumed.is_some_and(|t| t > ms(250) && t < ms(251)),
        "{resumed:?}"
    );
}

#[test]
fn a_rejuvenated_stalls_timer_does_not_hold_a_deadlock_open() {
    // Stalled at 10 ms for 30 s and rejuvenated at 30 ms, the spinner
    // then waits for good at 50 ms. Nothing else is pending, so that is
    // the instant of the deadlock, not the dead stall's end at 30.01 s.
    let chaos = ChaosConfig::none().stall("spinner", SimTime::ZERO + millis(10), secs(30));
    let mut sim = Sim::new(SimConfig::default().with_chaos(chaos));
    let m = sim.monitor("m", ());
    let never = sim.condition(&m, "never", None);
    let h = sim.fork_root("spinner", Priority::DEFAULT, move |ctx| {
        while ctx.now() < SimTime::ZERO + millis(50) {
            ctx.work(millis(1));
        }
        let mut g = ctx.enter(&m);
        let _ = g.wait(&never);
    });
    sim.run(RunLimit::Until(SimTime::ZERO + millis(30)));
    assert!(sim.rejuvenate(h.tid()));
    let report = sim.run(RunLimit::ToCompletion);
    let StopReason::Deadlock(wedge) = report.reason else {
        panic!("{:?} at {}", report.reason, report.now);
    };
    assert_eq!(wedge.blocked.len(), 1, "{wedge}");
    let spinner = &wedge.blocked[0];
    assert_eq!(
        (spinner.name.as_str(), spinner.resource.as_str()),
        ("spinner", "never")
    );
    assert_eq!(report.now, spinner.since);
    assert!(report.now < SimTime::ZERO + millis(51), "{}", report.now);
}

#[test]
fn a_donated_metalock_window_ends_its_holders_stall_and_its_timer() {
    // One CPU, a 20 ms metalock window. "holder" preempts "owner" at 1 ms
    // and opens the window on its contended ENTER; a stall catches it
    // inside at 5 ms, to end at 105 ms. "third" ENTERs at 10 ms and
    // donates the window's rest, which ends the stall early: its timer
    // must leave the wheel with it, so neither firing at 105 ms nor
    // cutting short the holder's second stall, 200 ms long from 50 ms
    // (pending until the holder is granted the monitor).
    let chaos = ChaosConfig::none()
        .stall("holder", SimTime::ZERO + millis(5), millis(100))
        .stall("holder", SimTime::ZERO + millis(50), millis(200));
    let cfg = SimConfig::default()
        .with_metalock_cost(millis(20))
        .with_chaos(chaos);
    let mut sim = Sim::new(cfg);
    sim.set_sink(Box::new(VecSink::default()));
    let m = sim.monitor("m", ());
    let (m2, m3) = (m.clone(), m.clone());
    let _ = sim.fork_root("owner", Priority::of(4), move |ctx| {
        let g = ctx.enter(&m);
        ctx.work(millis(30));
        drop(g);
    });
    let holder = sim.fork_root("holder", Priority::of(5), move |ctx| {
        ctx.sleep_precise(millis(1));
        drop(ctx.enter(&m2));
    });
    let _ = sim.fork_root("third", Priority::of(6), move |ctx| {
        ctx.sleep_precise(millis(10));
        drop(ctx.enter(&m3));
    });
    let report = sim.run(RunLimit::ToCompletion);
    assert_eq!(report.reason, StopReason::AllExited, "at {}", report.now);
    let holder = holder.tid();
    let events = take_events(&mut sim);
    let stalls: Vec<_> = (events.iter())
        .filter_map(|e| match e.kind {
            EventKind::ChaosStall { tid, until } if tid == holder => Some((e.t, until)),
            _ => None,
        })
        .collect();
    let ms = |n| SimTime::ZERO + millis(n);
    assert_eq!(stalls.len(), 2, "{stalls:?}");
    assert_eq!(stalls[0], (ms(5), ms(105)));
    let (granted, until) = stalls[1];
    assert_eq!(until, granted + millis(200));
    let left = (events.iter())
        .find(|e| matches!(e.kind, EventKind::MlExit { tid, .. } if tid == holder))
        .map(|e| e.t);
    assert!(
        left.is_some_and(|t| t > until && t < until + millis(1)),
        "{left:?}, stalled until {until}"
    );
}
