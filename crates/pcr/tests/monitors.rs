//! Integration tests for monitors, condition variables, fault paths,
//! fork policies, and deadlock reporting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use pcr::{
    micros, millis, panic_message, secs, EventKind, ForkError, ForkPolicy, JoinError, MonitorGuard,
    NotifyMode, Priority, RunLimit, Sim, SimConfig, StopReason, VecSink, WaitOutcome,
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

/// EXIT hands the monitor to the thread queued longest: three ENTERs
/// that queue behind a holder get it in the order they queued.
#[test]
fn exit_grants_queued_enters_in_fifo_order() {
    let mut s = sim();
    let m = s.monitor("m", Vec::new());
    let held = m.clone();
    let _ = s.fork_root("holder", Priority::of(2), move |ctx| {
        let _g = ctx.enter(&held);
        ctx.work(millis(10));
    });
    for (i, name) in ["first", "second", "third"].into_iter().enumerate() {
        let m = m.clone();
        let _ = s.fork_root(name, Priority::of(5), move |ctx| {
            ctx.sleep_precise(millis(1 + i as u64));
            ctx.enter(&m).with_mut(|order| order.push(name));
        });
    }
    let h = s.fork_root("reader", Priority::of(1), move |ctx| {
        ctx.sleep_precise(millis(20));
        ctx.enter(&m).with(|order| order.clone())
    });
    assert_eq!(s.run(RunLimit::ToCompletion).reason, StopReason::AllExited);
    assert_eq!(s.stats().ml_contended, 3, "all three queued");
    assert_eq!(
        h.into_result().unwrap().unwrap(),
        ["first", "second", "third"]
    );
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

fn panicked(msg: &str) -> Result<(), JoinError> {
    Err(JoinError::Panicked(msg.into()))
}

#[test]
fn a_panic_inside_with_mut_leaves_its_partial_write_to_the_next_enterer() {
    let mut s = sim();
    let m = s.monitor("pair", (0u32, 0u32));
    let m2 = m.clone();
    let dies = s.fork_root("dies-mid-write", Priority::of(5), move |ctx| {
        ctx.enter(&m2).with_mut(|p| {
            p.0 = 1;
            if p.0 == 1 {
                panic!("dies between the two writes");
            }
            p.1 = 1;
        })
    });
    let next = s.fork_root("next", Priority::of(4), move |ctx| {
        ctx.sleep_precise(millis(1));
        ctx.enter(&m).with(|p| *p)
    });
    assert_eq!(s.run(RunLimit::For(secs(2))).reason, StopReason::AllExited);
    assert_eq!(
        dies.into_result().unwrap(),
        panicked("dies between the two writes")
    );
    assert_eq!(next.into_result().unwrap(), Ok((1, 0)));
    assert_eq!(s.stats().panics, 1);
}

#[test]
fn a_thread_preempted_inside_with_mut_keeps_the_monitor() {
    let mut s = sim();
    let m = s.monitor("pair", (0u32, 0u32));
    let m2 = m.clone();
    let _ = s.fork_root("writer", Priority::of(3), move |ctx| {
        ctx.enter(&m2).with_mut(|p| {
            p.0 = 1;
            ctx.work(millis(20)); // The contender preempts it here, at 1ms.
            p.1 = 1;
        })
    });
    let contender = s.fork_root("contender", Priority::of(5), move |ctx| {
        ctx.sleep_precise(millis(1));
        let tried_at = ctx.now().as_micros();
        let g = ctx.enter(&m);
        (tried_at, ctx.now().as_micros(), g.with(|p| *p))
    });
    assert_eq!(s.run(RunLimit::For(secs(2))).reason, StopReason::AllExited);
    let (tried_at, got_at, seen) = contender.into_result().unwrap().unwrap();
    assert!(tried_at < 2_000 && got_at >= 20_000, "{tried_at} {got_at}");
    assert_eq!(seen, (1, 1), "only the finished value is visible");
    assert_eq!(s.stats().ml_contended, 1);
}

#[test]
fn nested_reads_through_one_guard_return() {
    let mut s = sim();
    let m = s.monitor("m", 7u32);
    let h = s.fork_root("reader", Priority::DEFAULT, move |ctx| {
        let g = ctx.enter(&m);
        g.with(|a| g.with(|b| *a + *b))
    });
    assert_eq!(s.run(RunLimit::For(secs(1))).reason, StopReason::AllExited);
    assert_eq!(h.into_result().unwrap(), Ok(14));
}

/// A WAIT cut short by teardown has already given its monitor up, so the
/// guard it leaves behind must not reach the data: here a destructor tries
/// to, while another thread is suspended inside `with_mut`. The waiter has
/// the lower tid, so teardown unwinds it first.
#[test]
fn a_guard_whose_wait_teardown_cut_short_is_refused() {
    struct Peek<'g, 'a>(&'g mut MonitorGuard<'a, u32>, Arc<Mutex<Vec<String>>>);
    impl Drop for Peek<'_, '_> {
        fn drop(&mut self) {
            let seen = catch_unwind(AssertUnwindSafe(|| self.0.with(|v| *v)));
            let seen = match seen {
                Ok(v) => format!("read {v}"),
                Err(payload) => panic_message(payload.as_ref()),
            };
            self.1.lock().unwrap().push(seen);
        }
    }
    let mut s = sim();
    let m = s.monitor("m", 0u32);
    let cv = s.condition(&m, "never", None);
    let log = Arc::new(Mutex::new(Vec::new()));
    let (m2, log2) = (m.clone(), Arc::clone(&log));
    let waiter = s.fork_root("waiter", Priority::DEFAULT, move |ctx| {
        let mut g = ctx.enter(&m2);
        let peek = Peek(&mut g, log2);
        peek.0.wait(&cv);
    });
    let writer = s.fork_root("writer", Priority::DEFAULT, move |ctx| {
        ctx.sleep_precise(millis(1));
        ctx.enter(&m).with_mut(|v| {
            *v = 1;
            ctx.work(secs(10)); // Still here when the world is dropped.
            *v = 2;
        })
    });
    assert!(waiter.tid() < writer.tid());
    assert_eq!(
        s.run(RunLimit::For(millis(100))).reason,
        StopReason::TimeLimit
    );
    drop(s);
    let refused = "monitor ML0: this guard's WAIT was cut short by teardown, \
                   and the monitor is no longer held";
    assert_eq!(*log.lock().unwrap(), [refused]);
}

/// A monitor made by another simulation, by its host or by one of its
/// threads, is refused in a world whose own first monitor has the same
/// id: the entering thread alone pays, and the world's monitor stays free.
#[test]
fn a_monitor_made_by_another_sim_is_refused() {
    let by_host = sim().monitor("by-host", 0u32);
    let mut other = sim();
    let by_thread = other.fork_root("maker", Priority::DEFAULT, |ctx| {
        ctx.new_monitor("by-thread", 0u32)
    });
    other.run(RunLimit::ToCompletion);
    for foreign in [by_host, by_thread.into_result().unwrap().unwrap()] {
        let mut s = sim();
        let own = s.monitor("own", 0u32);
        assert_eq!(own.id(), foreign.id(), "the ids collide");
        let trespasser = s.fork_root("trespasser", Priority::of(5), move |ctx| {
            ctx.enter(&foreign).with_mut(|v| *v += 1)
        });
        let owner = s.fork_root("owner", Priority::of(4), move |ctx| {
            ctx.enter(&own).with_mut(|v| std::mem::replace(v, 1))
        });
        assert_eq!(s.run(RunLimit::For(secs(1))).reason, StopReason::AllExited);
        let refused = panicked("enter: monitor ML0 belongs to another simulation");
        assert_eq!(trespasser.into_result().unwrap(), refused);
        assert_eq!(owner.into_result().unwrap(), Ok(0));
        assert_eq!((s.stats().panics, s.stats().ml_enters), (1, 1));
    }
}

// ---- batches (`Sim::monitors`) --------------------------------------------

fn names(names: &[&str]) -> Vec<Arc<str>> {
    names.iter().map(|&n| Arc::from(n)).collect()
}

/// The monitors of one batch share a data block but nothing else: a
/// holder of slot 0 does not block an ENTER of slot 1, and a write to one
/// slot shows in no other.
#[test]
fn batch_monitors_are_independent() {
    let mut s = sim();
    let ms = s.monitors(&names(&["a", "b", "c"]), |i| 10 * i as u32);
    let holder_m = ms[0].clone();
    let _ = s.fork_root("holder", Priority::of(3), move |ctx| {
        let mut g = ctx.enter(&holder_m);
        g.with_mut(|v| *v += 1);
        ctx.work(millis(20)); // The contender preempts it here, at 1ms.
    });
    let contender_m = ms[1].clone();
    let contender = s.fork_root("contender", Priority::of(5), move |ctx| {
        ctx.sleep_precise(millis(1));
        let tried_at = ctx.now().as_micros();
        let mut g = ctx.enter(&contender_m);
        let got_at = ctx.now().as_micros();
        g.with_mut(|v| *v = 99);
        (tried_at, got_at)
    });
    let reader = s.fork_root("reader", Priority::of(2), move |ctx| {
        ms.iter()
            .map(|m| ctx.enter(m).with(|v| *v))
            .collect::<Vec<_>>()
    });
    assert_eq!(s.run(RunLimit::For(secs(1))).reason, StopReason::AllExited);
    let (tried_at, got_at) = contender.into_result().unwrap().unwrap();
    // Slot 0 is held until 20ms; slot 1 is granted at the ENTER's cost.
    assert!(
        tried_at < 2_000 && got_at - tried_at < 10,
        "{tried_at} {got_at}"
    );
    assert_eq!(reader.into_result().unwrap(), Ok(vec![1, 99, 20]));
    assert_eq!((s.stats().ml_contended, s.stats().panics), (0, 0));
}

/// A batch's ids follow on from the monitors made before it, in the
/// order of its names, and the kernel keeps the very names it was given.
#[test]
fn batch_ids_follow_on_and_names_are_as_given() {
    let mut s = sim();
    let before = s.monitor("before", 0u8);
    let given = names(&["x", "y", "z"]);
    let mut inits = Vec::new();
    let batch = s.monitors(&given, |i| {
        inits.push(i);
        i as u8
    });
    assert!(s.monitors(&[], |_| 0u8).is_empty());
    let after = s.monitor("after", 0u8);
    assert_eq!(inits, [0, 1, 2]);
    let ids: Vec<u32> = std::iter::once(&before)
        .chain(&batch)
        .chain([&after])
        .map(|m| m.id().as_u32())
        .collect();
    assert_eq!(ids, [0, 1, 2, 3, 4]);
    let kept = s.monitor_names();
    let kept_str: Vec<&str> = kept.iter().map(|n| &**n).collect();
    assert_eq!(kept_str, ["before", "x", "y", "z", "after"]);
    for (k, g) in kept[1..4].iter().zip(&given) {
        assert!(Arc::ptr_eq(k, g), "{k} was copied, not shared");
    }
}

/// A batch monitor entered from another world is refused like any other
/// foreign monitor, though its id is a valid index there.
#[test]
fn a_batch_monitor_from_another_sim_is_refused() {
    let pair = names(&["p", "q"]);
    let foreign = sim().monitors(&pair, |_| 0u32).pop().unwrap();
    let mut s = sim();
    let own = s.monitors(&pair, |_| 0u32).pop().unwrap();
    assert_eq!(own.id(), foreign.id(), "the ids collide");
    let trespasser = s.fork_root("trespasser", Priority::of(5), move |ctx| {
        ctx.enter(&foreign).with_mut(|v| *v += 1)
    });
    let owner = s.fork_root("owner", Priority::of(4), move |ctx| {
        ctx.enter(&own).with_mut(|v| std::mem::replace(v, 1))
    });
    assert_eq!(s.run(RunLimit::For(secs(1))).reason, StopReason::AllExited);
    let refused = panicked("enter: monitor ML1 belongs to another simulation");
    assert_eq!(trespasser.into_result().unwrap(), refused);
    assert_eq!(owner.into_result().unwrap(), Ok(0));
    assert_eq!((s.stats().panics, s.stats().ml_enters), (1, 1));
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
fn a_condition_made_by_another_sim_is_refused() {
    let mut other = sim();
    let theirs = other.monitor("theirs", ());
    let foreign = other.condition(&theirs, "foreign", None);
    let mut s = sim();
    let own = s.monitor("own", ());
    let own_cv = s.condition(&own, "own", None);
    // Monitor and CV ids both collide: only the world tells them apart.
    assert_eq!((own.id(), own_cv.id()), (theirs.id(), foreign.id()));
    let handles = ["WAIT", "NOTIFY", "BROADCAST"].map(|op| {
        let (own, foreign) = (own.clone(), foreign.clone());
        let h = s.fork_root(op, Priority::DEFAULT, move |ctx| {
            let mut g = ctx.enter(&own);
            match op {
                "WAIT" => _ = g.wait(&foreign),
                "NOTIFY" => g.notify(&foreign),
                _ => g.broadcast(&foreign),
            }
        });
        (op, h)
    });
    assert_eq!(s.run(RunLimit::For(secs(1))).reason, StopReason::AllExited);
    for (op, h) in handles {
        let refused = format!("{op}: condition CondId(0) does not belong to monitor ML0");
        assert_eq!(h.into_result().unwrap(), panicked(&refused));
    }
    let st = s.stats();
    assert_eq!(
        (st.panics, st.cv_waits, st.cv_notifies, st.cv_broadcasts),
        (3, 0, 0, 0)
    );
}

/// A CV is made only on a monitor of the world that makes it: another
/// world's monitor, whose id names one of this world's, is refused on the
/// host by `Sim::condition` and in the thread by `new_condition`.
#[test]
fn a_condition_on_another_sims_monitor_is_refused() {
    let mut other = sim();
    let theirs = other.monitor("theirs", ());
    let mut s = sim();
    let own = s.monitor("own", ());
    assert_eq!(own.id(), theirs.id(), "the ids collide");
    let on_host = catch_unwind(AssertUnwindSafe(|| s.condition(&theirs, "cv", None)));
    let msg = panic_message(on_host.expect_err("refused on the host").as_ref());
    assert_eq!(msg, "condition: monitor ML0 belongs to another simulation");
    let h = s.fork_root("maker", Priority::DEFAULT, move |ctx| {
        ctx.new_condition(&theirs, "cv", None);
    });
    assert_eq!(s.run(RunLimit::For(secs(1))).reason, StopReason::AllExited);
    let refused = panicked("new_condition: monitor ML0 belongs to another simulation");
    assert_eq!(h.into_result().unwrap(), refused);
    assert!(s.condition_names().is_empty(), "no CV was made");
}

/// §6.1 on one CPU: 20 NOTIFYs from a notifier at 3 that works on inside
/// the monitor. Returns (spurious conflicts, switches, NOTIFYs).
fn notify_bench(mode: NotifyMode, waiter: u8) -> (u64, u64, u64) {
    let mut s = Sim::new(SimConfig::default().with_notify_mode(mode));
    let m = s.monitor("m", 0u32);
    let cv = s.condition(&m, "cv", None);
    let (m2, cv2) = (m.clone(), cv.clone());
    let _ = s.fork_root("waiter", Priority::of(waiter), move |ctx| {
        let mut g = ctx.enter(&m2);
        g.wait_until(&cv2, |&v| v >= 20);
    });
    let _ = s.fork_root("notifier", Priority::of(3), move |ctx| {
        for _ in 0..20 {
            let mut g = ctx.enter(&m);
            g.with_mut(|v| *v += 1);
            g.notify(&cv);
            ctx.work(micros(100)); // Still holding the monitor.
            drop(g);
        }
    });
    assert_eq!(s.run(RunLimit::For(secs(5))).reason, StopReason::AllExited);
    let stats = s.stats();
    (stats.spurious_conflicts, stats.switches, stats.cv_notifies)
}

/// An immediate reschedule sends a waiter that outranks the notifier
/// onto the held monitor once per NOTIFY; the deferred one never does.
#[test]
fn immediate_vs_deferred_notify_mode_is_observable() {
    let imm = notify_bench(NotifyMode::Immediate, 6).0;
    assert!(imm >= 19, "spurious conflicts under Immediate: {imm}");
    assert_eq!(notify_bench(NotifyMode::DeferredReschedule, 6).0, 0);
}

#[test]
fn deferred_mode_switches_less() {
    let (_, imm, imm_notifies) = notify_bench(NotifyMode::Immediate, 6);
    let (_, def, def_notifies) = notify_bench(NotifyMode::DeferredReschedule, 6);
    assert!(def + 20 <= imm, "switches: immediate {imm} deferred {def}");
    assert_eq!(imm_notifies, def_notifies, "the same NOTIFYs either way");
}

/// Conflicts need the inversion: a waiter below the notifier has none.
#[test]
fn lower_priority_waiter_never_conflicts() {
    assert_eq!(notify_bench(NotifyMode::Immediate, 2).0, 0);
    assert_eq!(notify_bench(NotifyMode::DeferredReschedule, 2).0, 0);
}

/// What a trace reader may rely on to rebuild holds: a WAIT emits
/// `MlExit` for the CV's own monitor at the `CvWait`'s timestamp, and an
/// outer monitor the waiter keeps gets no `MlExit` until it is left.
#[test]
fn wait_exits_its_own_monitor_and_not_an_outer_one() {
    let mut s = sim();
    let outer = s.monitor("outer", 0u32);
    let inner = s.monitor("inner", 0u32);
    let cv = s.condition(&inner, "cv", Some(millis(10)));
    let (outer_id, inner_id) = (outer.id(), inner.id());
    s.set_sink(Box::new(VecSink::default()));
    let _ = s.fork_root("nested", Priority::DEFAULT, move |ctx| {
        let _o = ctx.enter(&outer);
        let mut g = ctx.enter(&inner);
        // threadlint: allow(wait-with-outer-monitor) -- the case under test.
        let _ = g.wait(&cv); // Times out after 10 ms.
    });
    assert_eq!(s.run(RunLimit::ToCompletion).reason, StopReason::AllExited);
    let sink = s.take_sink().expect("the VecSink installed above");
    let events = sink.into_any().downcast::<VecSink>().unwrap().events;
    let marks: Vec<_> = (events.iter())
        .filter_map(|e| match e.kind {
            EventKind::CvWait { .. } => Some(("wait", e.t)),
            EventKind::CvWake { .. } => Some(("wake", e.t)),
            EventKind::MlExit { monitor, .. } if monitor == inner_id => Some(("exit inner", e.t)),
            EventKind::MlExit { monitor, .. } if monitor == outer_id => Some(("exit outer", e.t)),
            _ => None,
        })
        .collect();
    let order: Vec<&str> = marks.iter().map(|m| m.0).collect();
    assert_eq!(
        order,
        ["wait", "exit inner", "wake", "exit inner", "exit outer"]
    );
    assert_eq!(
        marks[0].1, marks[1].1,
        "the WAIT's exit is at its own instant"
    );
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
