//! The coroutine kernel at scale and at its edges, through the public
//! API only: worlds far larger than an OS-thread kernel could hold, the
//! multiprocessor scheduler on the same coroutine type, the rule that a
//! thread switches stacks only to leave the CPU, the rule that a
//! body's panic is the simulation's data while the kernel's is the host's,
//! and the stack pool each OS thread keeps across the worlds built on it.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use pcr::{
    micros, millis, secs, stack_pool_stats, ChaosConfig, Condition, Event, JoinError, Monitor,
    PolicyKind, Priority, RunLimit, Sim, SimConfig, SimTime, StopReason, ThreadCtx, TraceSink,
    WaitOutcome,
};

/// Counts its own drops: a local of a body that must be destroyed
/// exactly once however the body ends.
struct CountsDrop(Arc<AtomicUsize>);

impl Drop for CountsDrop {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn ten_thousand_simultaneously_live_threads_run_to_completion() {
    // Two VMAs a stack: 10 000 stacks stay well under the default
    // vm.max_map_count of 65 530.
    const THREADS: usize = 10_000;
    let mut sim = Sim::new(SimConfig::default().with_max_threads(THREADS + 1));
    let tally = sim.monitor("tally", 0usize);
    let root = sim.fork_root("root", Priority::of(5), move |ctx| {
        let children: Vec<_> = (0..THREADS)
            .map(|i| {
                let tally = tally.clone();
                ctx.fork_prio(&format!("t{i}"), Priority::of(3), move |ctx| {
                    // Asleep until long after the last fork, so every
                    // child is alive, on its own stack, at once.
                    ctx.sleep_precise(secs(3600));
                    ctx.enter(&tally).with_mut(|n| *n += 1);
                    i
                })
                .unwrap()
            })
            .collect();
        let sum: usize = children.into_iter().map(|h| ctx.join(h).unwrap()).sum();
        (sum, ctx.enter(&tally).with(|n| *n))
    });
    let report = sim.run(RunLimit::ToCompletion);
    assert_eq!(report.reason, StopReason::AllExited);
    assert_eq!(sim.stats().max_live_threads, THREADS + 1);
    assert_eq!(
        root.into_result().unwrap().unwrap(),
        (THREADS * (THREADS - 1) / 2, THREADS)
    );
    let alloc = sim.alloc_counters();
    assert_eq!(alloc.os_thread_spawns, THREADS as u64 + 1, "{alloc:?}");
    // Every stack has been vacated by now. The pool kept its bound of
    // them and gave the other mappings back.
    drop(sim);
    let pool = stack_pool_stats();
    assert!(pool.mapped > THREADS as u64, "{pool:?}");
    assert_eq!(pool.vacant, pool.bound, "{pool:?}");
    assert!(pool.bound < THREADS / 10, "{pool:?}");
}

const WORLD_THREADS: usize = 40;

/// A world the size of the paper's: forty eternal threads over seven
/// priorities, each entering a shared monitor, working and sleeping.
/// Each body leaves the address of a local of its first frame in `seen`,
/// which names the stack it ran on.
fn forty_thread_world(seen: &Arc<Mutex<BTreeSet<usize>>>) -> Sim {
    let mut sim = Sim::new(SimConfig::default());
    let tally = sim.monitor("tally", 0u64);
    for i in 0..WORLD_THREADS {
        let (tally, seen) = (tally.clone(), Arc::clone(seen));
        let priority = Priority::of(1 + (i % 7) as u8);
        let _ = sim.fork_root(&format!("eternal{i}"), priority, move |ctx| {
            let marker = std::hint::black_box(0u8);
            seen.lock().unwrap().insert(&raw const marker as usize);
            loop {
                ctx.enter(&tally).with_mut(|n| *n += 1);
                ctx.work(micros(50));
                ctx.sleep(millis(5 + i as u64));
            }
        });
    }
    sim
}

/// Builds one forty-thread world, runs it 100 ms and drops it with every
/// body suspended.
fn world_cycle(seen: &Arc<Mutex<BTreeSet<usize>>>) {
    let mut sim = forty_thread_world(seen);
    let report = sim.run(RunLimit::For(millis(100)));
    assert_eq!(report.reason, StopReason::TimeLimit);
    assert!(sim.stats().switches > WORLD_THREADS as u64);
    // What a world counts does not depend on what ran before it.
    let alloc = sim.alloc_counters();
    assert_eq!(
        (alloc.os_thread_spawns, alloc.os_thread_reuses),
        (WORLD_THREADS as u64, 0)
    );
}

#[test]
fn fifty_worlds_in_sequence_map_stacks_only_for_the_first() {
    let seen = Arc::default();
    let before = stack_pool_stats().mapped;
    world_cycle(&seen);
    let after_first = stack_pool_stats();
    assert!(after_first.mapped - before <= WORLD_THREADS as u64);
    assert!(after_first.vacant >= WORLD_THREADS, "{after_first:?}");
    for _ in 1..50 {
        world_cycle(&seen);
    }
    assert_eq!(stack_pool_stats().mapped, after_first.mapped);
    assert_eq!(seen.lock().unwrap().len(), WORLD_THREADS, "the same stacks");
}

#[test]
fn a_dropped_worlds_stacks_serve_the_next_whatever_state_its_bodies_were_in() {
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Sim::new(SimConfig::default());
    let add = |sim: &mut Sim, name: &str, body: fn(&ThreadCtx)| {
        let local = CountsDrop(Arc::clone(&drops));
        sim.fork_root(name, Priority::DEFAULT, move |ctx| {
            let _local = local;
            body(ctx);
        })
    };
    // Twenty bodies suspended at the drop, ten that panicked in the run,
    // and twenty forked after it that never start — ten of those on the
    // stacks the panicked ones vacated, so forty stacks in all.
    for i in 0..20 {
        let _ = add(&mut sim, &format!("suspended{i}"), |ctx| loop {
            ctx.sleep(millis(7));
        });
    }
    for i in 0..10 {
        let _ = add(&mut sim, &format!("panics{i}"), |ctx| {
            ctx.work(millis(1));
            panic!("a body's own failure");
        });
    }
    sim.run(RunLimit::For(millis(100)));
    assert_eq!(
        (sim.stats().panics, drops.load(Ordering::Relaxed)),
        (10, 10)
    );
    for i in 0..20 {
        let _ = add(&mut sim, &format!("unstarted{i}"), |_| unreachable!());
    }
    let alloc = sim.alloc_counters();
    assert_eq!((alloc.os_thread_spawns, alloc.os_thread_reuses), (40, 10));
    drop(sim);
    assert_eq!(drops.load(Ordering::Relaxed), 50, "every body's locals");

    let pool = stack_pool_stats();
    assert!(pool.vacant >= WORLD_THREADS, "{pool:?}");
    world_cycle(&Arc::default());
    let after = stack_pool_stats();
    assert_eq!((after.mapped, after.vacant), (pool.mapped, pool.vacant));
}

#[test]
fn two_os_threads_building_worlds_at_once_never_see_each_others_stacks() {
    const CYCLES: usize = 5;
    // Both threads are inside the same step of the same cycle at once,
    // and neither exits (unmapping its pool) before the other is done.
    let step = Barrier::new(2);
    let stacks_of_one_os_thread = || {
        let seen = Arc::default();
        for _ in 0..CYCLES {
            step.wait();
            let mut sim = forty_thread_world(&seen);
            step.wait();
            sim.run(RunLimit::For(millis(100)));
            step.wait();
            drop(sim);
        }
        step.wait();
        let seen = std::mem::take(&mut *seen.lock().unwrap());
        (seen, stack_pool_stats().mapped)
    };
    let ((a, a_mapped), (b, b_mapped)) = std::thread::scope(|s| {
        let a = s.spawn(stacks_of_one_os_thread);
        let b = s.spawn(stacks_of_one_os_thread);
        (a.join().unwrap(), b.join().unwrap())
    });
    // Each OS thread mapped forty stacks for its first world and ran its
    // other four on them; no stack address shows up on both.
    assert_eq!((a_mapped, b_mapped), (40, 40));
    assert_eq!((a.len(), b.len()), (WORLD_THREADS, WORLD_THREADS));
    assert!(a.is_disjoint(&b));
}

#[test]
fn a_gated_stall_catches_a_monitor_created_after_its_first_poll() {
    // The stall polls from 1 ms, when no monitor is called "late" and its
    // target holds one of another name. The target creates "late" at
    // 5 ms and is then inside it half the time.
    let at = SimTime::from_micros(1_000);
    let chaos = ChaosConfig::none().stall_while_holding("holder", "late", at, secs(30));
    let mut sim = Sim::new(SimConfig::default().with_chaos(chaos));
    let early = sim.monitor("early", ());
    let _ = sim.fork_root("holder", Priority::DEFAULT, move |ctx| {
        {
            let _g = ctx.enter(&early);
            ctx.work(millis(5));
        }
        let late = ctx.new_monitor("late", ());
        loop {
            let g = ctx.enter(&late);
            ctx.work(millis(2));
            drop(g);
            ctx.sleep_precise(millis(2));
        }
    });
    sim.run(RunLimit::For(millis(50)));
    assert_eq!(sim.stats().chaos_stalls, 1, "the gated stall never fired");
    let graph = sim.wait_for_graph();
    assert_eq!(graph.stalled.len(), 1, "{}", graph.render());
    assert_eq!(graph.stalled[0].1, "holder");
    assert!(sim.now() < SimTime::from_micros(60_000));
}

/// The stack switches a world costs from start to finish, which must be
/// the same under all four policies.
fn stack_switches(build: impl Fn(&mut Sim)) -> u64 {
    let counts = PolicyKind::ALL.map(|policy| {
        let mut sim = Sim::new(SimConfig::default().with_policy(policy));
        build(&mut sim);
        let report = sim.run(RunLimit::ToCompletion);
        assert_eq!(report.reason, StopReason::AllExited, "{policy}");
        sim.alloc_counters().stack_switches
    });
    assert_eq!(counts, [counts[0]; 4], "the policies disagree");
    counts[0]
}

#[test]
fn a_thread_switches_stacks_only_to_leave_the_cpu() {
    type Body = fn(&ThreadCtx, &Monitor<()>, &Condition);
    let solo = |body: Body| {
        stack_switches(move |sim| {
            let m = sim.monitor("m", ());
            let cv = sim.condition(&m, "cv", Some(millis(10)));
            let _ = sim.fork_root("solo", Priority::DEFAULT, move |ctx| body(ctx, &m, &cv));
        })
    };
    // One thread's first dispatch, and then nothing for 10 000 uncontended
    // enter + work + exit triples, the quantum expiries with nobody else
    // ready included.
    let triples: Body = |ctx, m, _| {
        for _ in 0..10_000 {
            let _g = ctx.enter(m);
            ctx.work(micros(10));
        }
    };
    assert_eq!(solo(triples), 1);
    // One more for a sleep, and for a CV wait (ended here by its timeout),
    assert_eq!(solo(|ctx, _, _| ctx.sleep_precise(millis(1))), 2);
    let cv_wait: Body = |ctx, m, cv| {
        let _ = ctx.enter(m).wait(cv);
    };
    assert_eq!(solo(cv_wait), 2);
    // for a contended enter (two first dispatches and a sleep each to
    // stage it: the holder is asleep inside when the waiter arrives),
    let contended = |sim: &mut Sim| {
        let m = sim.monitor("m", ());
        let inner = m.clone();
        let _ = sim.fork_root("holder", Priority::DEFAULT, move |ctx| {
            let _g = ctx.enter(&inner);
            ctx.sleep_precise(millis(1)); // threadlint: allow(blocking-call-in-monitor)
        });
        let _ = sim.fork_root("waiter", Priority::DEFAULT, move |ctx| {
            ctx.sleep_precise(micros(500));
            drop(ctx.enter(&m));
        });
    };
    assert_eq!(stack_switches(contended), 2 + 2 + 1);
    // and for a quantum expiry with a competitor ready.
    let quantum = |sim: &mut Sim| {
        let _ = sim.fork_root("hog", Priority::DEFAULT, |ctx| {
            let _ = ctx.fork_detached("peer", |ctx| ctx.work(millis(10)));
            ctx.work(millis(75));
        });
    };
    assert_eq!(stack_switches(quantum), 2 + 1);
}

/// A waiter on a CV with a 30 s timeout is NOTIFYed at ~1 ms, and then
/// both threads wait for good on a CV with none.
fn notified_then_quiescent(cpus: usize) -> Sim {
    let mut sim = Sim::with_cpus(SimConfig::default(), cpus);
    let m = sim.monitor("m", ());
    let timed = sim.condition(&m, "timed", Some(secs(30)));
    let never = sim.condition(&m, "never", None);
    let (m2, timed2, never2) = (m.clone(), timed.clone(), never.clone());
    let _ = sim.fork_root("waiter", Priority::DEFAULT, move |ctx| {
        let mut g = ctx.enter(&m2);
        assert_eq!(g.wait(&timed2), WaitOutcome::Notified);
        let _ = g.wait(&never2);
    });
    let _ = sim.fork_root("notifier", Priority::DEFAULT, move |ctx| {
        ctx.sleep_precise(millis(1));
        let mut g = ctx.enter(&m);
        g.notify(&timed);
        let _ = g.wait(&never);
    });
    sim
}

#[test]
fn a_quiescent_world_idles_on_to_the_deadline_of_a_wait_that_was_notified() {
    // The timeout of the ended wait, on the 50 ms tick. It wakes nobody,
    // but a world with nothing else to do is not over until it has passed.
    let deadline = SimTime::ZERO + secs(30) + millis(50);
    for cpus in [1, 2] {
        let report = notified_then_quiescent(cpus).run(RunLimit::For(secs(20)));
        assert_eq!(report.reason, StopReason::TimeLimit, "{cpus} cpus");
        assert_eq!(report.now, SimTime::ZERO + secs(20), "{cpus} cpus");

        let mut sim = notified_then_quiescent(cpus);
        let report = sim.run(RunLimit::ToCompletion);
        assert!(report.deadlocked(), "{cpus} cpus: {:?}", report.reason);
        assert_eq!(report.now, deadline, "{cpus} cpus");
        assert_eq!(sim.stats().cv_timeouts, 0, "{cpus} cpus");
    }
}

#[test]
fn the_wheel_is_as_small_as_the_live_waits() {
    // The ping-pong microworld of `benchmark/src/layers.rs`: every wait
    // arms a 50 ms timeout and nearly every one is ended by the NOTIFY of
    // the other thread, microseconds later.
    const ROUNDS: u64 = 4_000;
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.monitor("m", ());
    let cv = sim.condition(&m, "cv", Some(millis(50)));
    for name in ["ping", "pong"] {
        let (m, cv) = (m.clone(), cv.clone());
        let _ = sim.fork_root(name, Priority::DEFAULT, move |ctx| {
            let mut g = ctx.enter(&m);
            for _ in 0..ROUNDS {
                g.notify(&cv);
                let _ = g.wait(&cv);
            }
            g.notify(&cv);
        });
    }
    let report = sim.run(RunLimit::ToCompletion);
    assert_eq!(report.reason, StopReason::AllExited);
    let alloc = sim.alloc_counters();
    // One timer armed per wait, as ever,
    assert_eq!(sim.stats().cv_waits, 2 * ROUNDS);
    assert_eq!(
        alloc.timer_node_allocs + alloc.timer_node_reuses,
        2 * ROUNDS,
        "{alloc:?}"
    );
    // and at most one live per thread: an ended wait's left with it.
    assert!(alloc.timer_node_allocs <= 2, "{alloc:?}");
}

/// A sink whose tenth `record` panics: by then the world below is
/// emitting from kernel calls made on a body's stack.
struct PanicsOnTenth(u32);

impl TraceSink for PanicsOnTenth {
    fn record(&mut self, _: &Event) {
        self.0 += 1;
        assert!(self.0 < 10, "the sink gave up");
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[test]
fn a_panic_of_the_kernels_on_a_body_stack_surfaces_from_run() {
    let mut sim = Sim::new(SimConfig::default());
    sim.set_sink(Box::new(PanicsOnTenth(0)));
    let m = sim.monitor("m", ());
    let body = sim.fork_root("body", Priority::DEFAULT, move |ctx| loop {
        drop(ctx.enter(&m));
    });
    let run = catch_unwind(AssertUnwindSafe(|| sim.run(RunLimit::For(secs(1)))));
    let payload = run.expect_err("the sink's panic reaches the host");
    assert_eq!(pcr::panic_message(payload.as_ref()), "the sink gave up");
    // It is not the simulated thread's own: nothing exited, nothing to join.
    assert_eq!((sim.stats().panics, sim.stats().exits), (0, 0));
    assert!(body.into_result().is_none());
}

#[test]
fn mp_mesh_survives_panicking_and_shut_down_bodies() {
    // Eight stations on four CPUs pass tokens round a ring of mailboxes.
    // Two stations panic mid-run while inside their mailbox's monitor,
    // two wait for ever on a condition nobody notifies and are unwound
    // when the world is dropped; the rest run to completion.
    const STATIONS: usize = 8;
    const ROUNDS: usize = 20;
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Sim::with_cpus(SimConfig::default(), 4);
    let boxes: Vec<_> = (0..STATIONS)
        .map(|i| sim.monitor(&format!("box{i}"), 0usize))
        .collect();
    let arrived: Vec<_> = (0..STATIONS)
        .map(|i| sim.condition(&boxes[i], "arrived", Some(millis(5))))
        .collect();
    let never = sim.condition(&boxes[0], "never", None);

    let mut workers = Vec::new();
    for i in 0..STATIONS {
        let (mine, next) = (boxes[i].clone(), boxes[(i + 1) % STATIONS].clone());
        let (mine_cv, next_cv) = (arrived[i].clone(), arrived[(i + 1) % STATIONS].clone());
        let local = CountsDrop(Arc::clone(&drops));
        workers.push(
            sim.fork_root(&format!("station{i}"), Priority::DEFAULT, move |ctx| {
                let _local = local;
                for round in 0..ROUNDS {
                    ctx.work(millis(1));
                    {
                        let mut g = ctx.enter(&next);
                        g.with_mut(|n| *n += 1);
                        g.notify(&next_cv);
                    }
                    let mut g = ctx.enter(&mine);
                    if g.with(|n| *n == 0) {
                        let _: WaitOutcome = g.wait(&mine_cv);
                    }
                    g.with_mut(|n| *n = n.saturating_sub(1));
                    if i % 4 == 1 && round == 7 {
                        panic!("station {i} derailed");
                    }
                }
                i
            }),
        );
    }
    let mut stuck = Vec::new();
    for i in 0..2 {
        let (m, cv) = (boxes[0].clone(), never.clone());
        let local = CountsDrop(Arc::clone(&drops));
        stuck.push(
            sim.fork_root(&format!("stuck{i}"), Priority::of(2), move |ctx| {
                let _local = local;
                let mut g = ctx.enter(&m);
                loop {
                    g.wait(&cv);
                }
            }),
        );
    }

    let report = sim.run(RunLimit::ToCompletion);
    assert!(report.deadlocked(), "the two stuck threads remain");
    assert_eq!(sim.stats().panics, 2);
    assert_eq!(sim.stats().exits, STATIONS as u64);
    for (i, h) in workers.into_iter().enumerate() {
        let result = h.into_result().expect("every station exited");
        if i % 4 == 1 {
            assert_eq!(
                result,
                Err(JoinError::Panicked(format!("station {i} derailed")))
            );
        } else {
            assert_eq!(result, Ok(i));
        }
    }
    assert_eq!(
        drops.load(Ordering::Relaxed),
        STATIONS,
        "stuck ones still hold theirs"
    );
    drop(sim);
    assert_eq!(drops.load(Ordering::Relaxed), STATIONS + 2);
    for h in stuck {
        assert!(h.into_result().is_none(), "unwound, never exited");
    }
}

/// Re-runs this test binary on `child_world_with_one_panic_each_side`
/// alone, uncaptured, and reads what reached its stderr.
#[test]
fn a_panicking_body_leaves_stderr_empty_and_join_carries_the_message() {
    let out = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "child_world_with_one_panic_each_side"])
        .args(["--ignored", "--nocapture", "--test-threads=1"])
        .env_remove("RUST_BACKTRACE")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child failed: {stderr}");
    // The hook is a filter, not a gag: the host's own panic still prints,
    // and it is the only one that does.
    assert!(
        stderr.contains("host-side failure"),
        "host panic swallowed: {stderr}"
    );
    assert_eq!(stderr.matches("panicked at").count(), 1, "{stderr}");
    assert!(!stderr.contains("simulated failure"), "{stderr}");
}

#[test]
#[ignore = "the child half of a_panicking_body_leaves_stderr_empty_and_join_carries_the_message"]
fn child_world_with_one_panic_each_side() {
    let mut sim = Sim::new(SimConfig::default());
    let body = sim.fork_root("body", Priority::DEFAULT, |ctx| {
        ctx.work(millis(1));
        panic!("simulated failure in a body");
    });
    // One more, left suspended and unwound with the private payload at drop.
    let _ = sim.fork_root("sleeper", Priority::DEFAULT, |ctx| loop {
        ctx.sleep(secs(1));
    });
    sim.run(RunLimit::For(secs(2)));
    assert_eq!(sim.stats().panics, 1);
    assert_eq!(
        body.into_result().unwrap(),
        Err(JoinError::Panicked("simulated failure in a body".into()))
    );
    drop(sim);
    let host = std::panic::catch_unwind(|| panic!("host-side failure"));
    assert!(host.is_err());
}
