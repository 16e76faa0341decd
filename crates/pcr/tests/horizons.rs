//! Kernel calls that end exactly on a horizon — the next timer's
//! deadline, the end of the quantum, the end of the run's window — or
//! that decide something — an ENTER behind a preempted metalock holder,
//! an EXIT that hands the monitor to a queued thread or has a deferred
//! NOTIFY, a CFS `work` after which a ready thread is owed the CPU. Each pins its whole event sequence with its
//! timestamps: an uncontended call finished in place, without a kernel
//! request, must leave exactly what the general path leaves.

use pcr::{
    micros, millis, Event, EventKind, PolicyKind, Priority, RunLimit, Sim, SimConfig, VecSink,
};

/// One event as `"<µs> <what>"`, compact for the kinds these worlds make.
fn line(ev: &Event) -> String {
    let what = match ev.kind {
        EventKind::Switch { to, .. } => format!("switch {to:?}"),
        EventKind::MlEnter {
            tid,
            monitor,
            contended,
        } => format!(
            "enter {tid:?} {monitor:?}{}",
            if contended { " contended" } else { "" }
        ),
        EventKind::MlAcquired { tid, monitor } => format!("acquired {tid:?} {monitor:?}"),
        EventKind::MlExit { tid, monitor } => format!("exit {tid:?} {monitor:?}"),
        EventKind::QuantumExpired { tid } => format!("expired {tid:?}"),
        EventKind::Fork { child, .. } => format!("fork {child:?}"),
        EventKind::Exit { tid, .. } => format!("end {tid:?}"),
        other => format!("{other:?}"),
    };
    format!("{} {what}", ev.t.as_micros())
}

/// Builds a world with `build`, runs it for each of `windows` in turn
/// and returns every event it recorded.
fn events(cfg: SimConfig, windows: &[RunLimit], build: fn(&mut Sim)) -> Vec<String> {
    let mut sim = Sim::new(cfg);
    sim.set_sink(Box::new(VecSink::default()));
    build(&mut sim);
    for &limit in windows {
        sim.run(limit);
    }
    let sink = sim.take_sink().expect("the sink installed above");
    let sink = sink.into_any().downcast::<VecSink>().expect("a VecSink");
    sink.events.iter().map(line).collect()
}

struct Case {
    name: &'static str,
    cfg: SimConfig,
    windows: &'static [RunLimit],
    build: fn(&mut Sim),
    want: &'static [&'static str],
}

const TO_COMPLETION: &[RunLimit] = &[RunLimit::ToCompletion];

fn check(cases: Vec<Case>) {
    for case in cases {
        let got = events(case.cfg, case.windows, case.build);
        assert_eq!(got, case.want, "{}:\n{got:#?}", case.name);
    }
}

// The timer case: `T1` (priority 5) runs first and sleeps until t =
// 1080 µs; `T0` (priority 3), dispatched at 80 µs after the switch cost,
// makes a call whose cost ends at exactly 1080. The timer fires as the
// call ends, and the sleeper preempts there.

fn work_to_the_timer(sim: &mut Sim) {
    let _ = sim.fork_root("worker", Priority::of(3), |ctx| {
        ctx.work(micros(1000));
        ctx.work(micros(10));
    });
    let _ = sim.fork_root("sleeper", Priority::of(5), |ctx| {
        ctx.sleep_precise(micros(1040));
    });
}

fn enter_to_the_timer(sim: &mut Sim) {
    let m = sim.monitor("m", ());
    let _ = sim.fork_root("worker", Priority::of(3), move |ctx| {
        ctx.work(micros(999));
        let g = ctx.enter(&m);
        drop(g);
    });
    let _ = sim.fork_root("sleeper", Priority::of(5), |ctx| {
        ctx.sleep_precise(micros(1040));
    });
}

// The quantum case: two threads at one priority and a 10 ms quantum. The
// first call ends exactly at the end of `T0`'s slice; the slice expires
// at its next call that costs anything, and `T1` runs.

fn work_to_the_quantum(sim: &mut Sim) {
    let m = sim.monitor("m", ());
    let _ = sim.fork_root("a", Priority::of(4), move |ctx| {
        ctx.work(millis(10));
        drop(ctx.enter(&m));
    });
    let _ = sim.fork_root("b", Priority::of(4), |ctx| ctx.work(micros(5)));
}

fn enter_to_the_quantum(sim: &mut Sim) {
    let m = sim.monitor("m", ());
    let _ = sim.fork_root("a", Priority::of(4), move |ctx| {
        ctx.work(micros(9_999));
        let g = ctx.enter(&m);
        ctx.work(micros(5));
        drop(g);
    });
    let _ = sim.fork_root("b", Priority::of(4), |ctx| ctx.work(micros(5)));
}

// The window case: the first run stops at 1040 µs, exactly where a call
// ends; the thread is put back at the head of the queue and the second
// run dispatches it again, with no switch.

fn work_to_the_window_end(sim: &mut Sim) {
    let _ = sim.fork_root("worker", Priority::of(3), |ctx| {
        ctx.work(micros(1000));
        ctx.work(micros(10));
    });
}

fn enter_to_the_window_end(sim: &mut Sim) {
    let m = sim.monitor("m", ());
    let _ = sim.fork_root("worker", Priority::of(3), move |ctx| {
        ctx.work(micros(999));
        let g = ctx.enter(&m);
        ctx.work(micros(10));
        drop(g);
    });
}

const WINDOWS: &[RunLimit] = &[RunLimit::For(micros(1040)), RunLimit::ToCompletion];

#[test]
fn calls_that_end_on_a_horizon_keep_their_events() {
    let quantum = SimConfig::default().with_quantum(millis(10));
    check(vec![
        Case {
            name: "work ends at the timer",
            cfg: SimConfig::default(),
            windows: TO_COMPLETION,
            build: work_to_the_timer,
            want: &[
                "0 fork T0",
                "0 fork T1",
                "0 switch T1",
                "40 Sleep { tid: T1, until: t+1080us }",
                "40 switch T0",
                "1080 switch T1",
                "1120 end T1",
                "1120 switch T0",
                "1170 end T0",
            ],
        },
        Case {
            name: "enter ends at the timer",
            cfg: SimConfig::default(),
            windows: TO_COMPLETION,
            build: enter_to_the_timer,
            want: &[
                "0 fork T0",
                "0 fork T1",
                "0 switch T1",
                "40 Sleep { tid: T1, until: t+1080us }",
                "40 switch T0",
                "1079 enter T0 ML0",
                "1080 switch T1",
                "1120 end T1",
                "1120 switch T0",
                "1160 exit T0 ML0",
                "1161 end T0",
            ],
        },
        Case {
            name: "work ends at the quantum",
            cfg: quantum.clone(),
            windows: TO_COMPLETION,
            build: work_to_the_quantum,
            want: &[
                "0 fork T0",
                "0 fork T1",
                "0 switch T0",
                "10040 enter T0 ML0",
                "10040 expired T0",
                "10040 switch T1",
                "10085 end T1",
                "10085 switch T0",
                "10126 exit T0 ML0",
                "10127 end T0",
            ],
        },
        Case {
            name: "enter ends at the quantum",
            cfg: quantum,
            windows: TO_COMPLETION,
            build: enter_to_the_quantum,
            want: &[
                "0 fork T0",
                "0 fork T1",
                "0 switch T0",
                "10039 enter T0 ML0",
                "10040 expired T0",
                "10040 switch T1",
                "10085 end T1",
                "10085 switch T0",
                "10130 exit T0 ML0",
                "10131 end T0",
            ],
        },
        Case {
            name: "work ends at the window",
            cfg: SimConfig::default(),
            windows: WINDOWS,
            build: work_to_the_window_end,
            want: &["0 fork T0", "0 switch T0", "1050 end T0"],
        },
        Case {
            name: "enter ends at the window",
            cfg: SimConfig::default(),
            windows: WINDOWS,
            build: enter_to_the_window_end,
            want: &[
                "0 fork T0",
                "0 switch T0",
                "1039 enter T0 ML0",
                "1050 exit T0 ML0",
                "1051 end T0",
            ],
        },
    ]);
}

// The metalock case (§6.2): two threads at one priority and a 500 µs
// quantum. `T0` holds `m` and yields; `T1` makes a contended ENTER, and
// its quantum ends inside the 1 ms window. `T0` leaves `m` — free now,
// but with `T1` still inside its window — and enters it again: with
// donation it runs `T1`'s window out and queues behind it, without it
// stalls.

fn enter_behind_a_preempted_window(sim: &mut Sim) {
    let m = sim.monitor("m", ());
    let m2 = m.clone();
    let _ = sim.fork_root("holder", Priority::of(4), move |ctx| {
        let g = ctx.enter(&m);
        ctx.yield_now();
        drop(g);
        let g = ctx.enter(&m);
        ctx.work(micros(10));
        drop(g);
    });
    let _ = sim.fork_root("contender", Priority::of(4), move |ctx| {
        let g = ctx.enter(&m2);
        ctx.work(micros(10));
        drop(g);
    });
}

// The deferred-NOTIFY case (§6.1): `T0` waits on a CV; `T1` enters the
// monitor, NOTIFYs, which under deferred reschedule only queues `T0`
// for the monitor's release, and exits, which hands `T0` the monitor.

fn exit_with_a_deferred_notify(sim: &mut Sim) {
    let m = sim.monitor("m", false);
    let cv = sim.condition(&m, "cv", None);
    let (m2, cv2) = (m.clone(), cv.clone());
    let _ = sim.fork_root("waiter", Priority::of(4), move |ctx| {
        let mut g = ctx.enter(&m);
        while !g.with(|set| *set) {
            g.wait(&cv);
        }
        drop(g);
    });
    let _ = sim.fork_root("notifier", Priority::of(3), move |ctx| {
        let mut g = ctx.enter(&m2);
        g.with_mut(|set| *set = true);
        g.notify(&cv2);
        drop(g);
        ctx.work(micros(10));
    });
}

// The hand-off case: `T0` (priority 3) works inside `m`; `T1` (priority
// 5) wakes at 500 µs, preempts it, and queues on `m`. `T0`'s EXIT hands
// `m` to `T1`, which preempts it before the EXIT's cost is paid.

fn exit_to_a_queued_preemptor(sim: &mut Sim) {
    let m = sim.monitor("m", ());
    let m2 = m.clone();
    let _ = sim.fork_root("owner", Priority::of(3), move |ctx| {
        let g = ctx.enter(&m);
        ctx.work(millis(1));
        drop(g);
        ctx.work(micros(10));
    });
    let _ = sim.fork_root("waker", Priority::of(5), move |ctx| {
        ctx.sleep_precise(micros(500));
        drop(ctx.enter(&m2));
    });
}

// The CFS case: two threads of one weight, both ready at vruntime 0.
// `T0` runs first, 1 ms of work and a monitor at a time; after its
// eighth `work`, 8 014 µs of CPU in all, `T1` trails it by more than the
// wakeup granularity and takes the CPU, before `T0`'s next ENTER.

fn cfs_work_until_overtaken(sim: &mut Sim) {
    let m = sim.monitor("m", ());
    let _ = sim.fork_root("a", Priority::of(4), move |ctx| {
        for _ in 0..10 {
            ctx.work(millis(1));
            drop(ctx.enter(&m));
        }
    });
    let _ = sim.fork_root("b", Priority::of(4), |ctx| ctx.work(micros(5)));
}

#[test]
fn calls_that_decide_something_keep_their_events() {
    let window = (SimConfig::default())
        .with_quantum(micros(500))
        .with_metalock_cost(millis(1));
    check(vec![
        Case {
            name: "enter behind a preempted window, donating",
            cfg: window.clone(),
            windows: TO_COMPLETION,
            build: enter_behind_a_preempted_window,
            want: &[
                "0 fork T0",
                "0 fork T1",
                "0 switch T0",
                "40 enter T0 ML0",
                "41 Yield { tid: T0, kind: Normal }",
                "41 switch T1",
                "81 enter T1 ML0 contended",
                "581 expired T1",
                "581 switch T0",
                "621 exit T0 ML0",
                "1122 acquired T1 ML0",
                "1122 enter T0 ML0 contended",
                "1621 expired T0",
                "1621 switch T1",
                "1671 exit T1 ML0",
                "1672 end T1",
                "1672 switch T0",
                "2212 expired T0",
                "2213 acquired T0 ML0",
                "2223 exit T0 ML0",
                "2224 end T0",
            ],
        },
        Case {
            name: "enter behind a preempted window, stalling",
            cfg: window.with_metalock_donation(false),
            windows: TO_COMPLETION,
            build: enter_behind_a_preempted_window,
            want: &[
                "0 fork T0",
                "0 fork T1",
                "0 switch T0",
                "40 enter T0 ML0",
                "41 Yield { tid: T0, kind: Normal }",
                "41 switch T1",
                "81 enter T1 ML0 contended",
                "581 expired T1",
                "581 switch T0",
                "621 exit T0 ML0",
                "622 MetalockStall { tid: T0, monitor: ML0, holder: T1 }",
                "622 switch T1",
                "1162 acquired T1 ML0",
                "1162 switch T0",
                "1202 enter T0 ML0 contended",
                "1202 switch T1",
                "1252 exit T1 ML0",
                "1252 acquired T0 ML0",
                "1253 end T1",
                "1253 switch T0",
                "1303 exit T0 ML0",
                "1304 end T0",
            ],
        },
        Case {
            name: "exit to a queued preemptor",
            cfg: SimConfig::default(),
            windows: TO_COMPLETION,
            build: exit_to_a_queued_preemptor,
            want: &[
                "0 fork T0",
                "0 fork T1",
                "0 switch T1",
                "40 Sleep { tid: T1, until: t+540us }",
                "40 switch T0",
                "80 enter T0 ML0",
                "540 switch T1",
                "580 enter T1 ML0 contended",
                "582 switch T0",
                "1163 exit T0 ML0",
                "1163 acquired T1 ML0",
                "1163 switch T1",
                "1203 exit T1 ML0",
                "1204 end T1",
                "1204 switch T0",
                "1255 end T0",
            ],
        },
        Case {
            name: "exit with a deferred notify",
            cfg: SimConfig::default(),
            windows: TO_COMPLETION,
            build: exit_with_a_deferred_notify,
            want: &[
                "0 fork T0",
                "0 fork T1",
                "0 switch T0",
                "40 enter T0 ML0",
                "41 CvWait { tid: T0, cv: CondId(0) }",
                "41 exit T0 ML0",
                "41 switch T1",
                "81 enter T1 ML0",
                "82 Notify { tid: T1, cv: CondId(0), woken: Some(T0) }",
                "83 exit T1 ML0",
                "83 acquired T0 ML0",
                "83 CvWake { tid: T0, cv: CondId(0), outcome: Notified }",
                "83 switch T0",
                "123 exit T0 ML0",
                "124 end T0",
                "124 switch T1",
                "175 end T1",
            ],
        },
        Case {
            name: "cfs work until overtaken",
            cfg: SimConfig::default().with_policy(PolicyKind::Cfs),
            windows: TO_COMPLETION,
            build: cfs_work_until_overtaken,
            want: &[
                "0 fork T0",
                "0 fork T1",
                "0 switch T0",
                "1040 enter T0 ML0",
                "1041 exit T0 ML0",
                "2042 enter T0 ML0",
                "2043 exit T0 ML0",
                "3044 enter T0 ML0",
                "3045 exit T0 ML0",
                "4046 enter T0 ML0",
                "4047 exit T0 ML0",
                "5048 enter T0 ML0",
                "5049 exit T0 ML0",
                "6050 enter T0 ML0",
                "6051 exit T0 ML0",
                "7052 enter T0 ML0",
                "7053 exit T0 ML0",
                "8054 switch T1",
                "8099 end T1",
                "8099 switch T0",
                "8139 enter T0 ML0",
                "8140 exit T0 ML0",
                "9141 enter T0 ML0",
                "9142 exit T0 ML0",
                "10143 enter T0 ML0",
                "10144 exit T0 ML0",
                "10145 end T0",
            ],
        },
    ]);
}
