//! Property-based tests on the core invariants: mutual exclusion, FIFO
//! delivery, timer quantization arithmetic, histogram conservation, and
//! the NOTIFY/spurious-wakeup contracts from §5.3.
//!
//! The build environment has no registry access, so instead of a
//! property-testing framework each test draws its own random cases from
//! a seeded [`SplitMix64`] stream: same coverage shape (ranged inputs,
//! many cases), fully deterministic, trivially reproducible from the
//! printed case seed on failure.

use threadstudy::paradigms::pump::BoundedQueue;
use threadstudy::pcr::{
    micros, millis, secs, ChaosConfig, EventKind, Priority, RunLimit, Sim, SimConfig, SimDuration,
    SimTime, SplitMix64, VecSink, WaitOutcome,
};

/// Runs `f` once per case with a per-case RNG derived from a fixed
/// base seed, printing the case seed on entry so a failing case can be
/// replayed in isolation.
fn for_cases(cases: u64, mut f: impl FnMut(&mut SplitMix64)) {
    for case in 0..cases {
        let seed = 0x5EED_CA5E_0000_0000 ^ case;
        let mut rng = SplitMix64::new(seed);
        f(&mut rng);
    }
}

/// Uniform draw from the half-open range `lo..hi`.
fn pick(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    assert!(lo < hi);
    lo + rng.next_below(hi - lo)
}

/// Monitors provide mutual exclusion under arbitrary thread mixes: a
/// non-atomic read-work-write critical section never loses an update,
/// and no two threads are ever inside simultaneously.
#[test]
fn monitor_mutual_exclusion() {
    for_cases(12, |rng| {
        let threads = pick(rng, 2, 6) as usize;
        let iters = pick(rng, 1, 12) as u32;
        let hold_us = pick(rng, 1, 2000);
        let seed = rng.next_u64();
        let mut sim = Sim::new(SimConfig::default().with_seed(seed));
        let cell = sim.monitor("cell", (0u64, false));
        for t in 0..threads {
            let cell = cell.clone();
            let prio = Priority::of(2 + (t % 4) as u8);
            let _ = sim.fork_root(&format!("t{t}"), prio, move |ctx| {
                for _ in 0..iters {
                    let mut g = ctx.enter(&cell);
                    g.with_mut(|(_, inside)| {
                        assert!(!*inside, "two threads inside the monitor");
                        *inside = true;
                    });
                    let before = g.with(|(v, _)| *v);
                    ctx.work(micros(hold_us)); // Preemption points inside.
                    g.with_mut(|(v, inside)| {
                        *v = before + 1;
                        *inside = false;
                    });
                    drop(g);
                    ctx.yield_now();
                }
            });
        }
        let r = sim.run(RunLimit::For(secs(60)));
        assert!(!r.deadlocked());
        let final_value = {
            let mut sim2 = sim; // Read back through a probe thread.
            let h = sim2.fork_root("probe", Priority::of(6), move |ctx| {
                let g = ctx.enter(&cell);
                g.with(|(v, _)| *v)
            });
            sim2.run(RunLimit::For(secs(1)));
            h.into_result().unwrap().unwrap()
        };
        assert_eq!(final_value, threads as u64 * u64::from(iters));
    });
}

/// Bounded queues deliver exactly the items put, preserving each
/// producer's order, for any capacity and producer mix.
#[test]
fn bounded_queue_no_loss_no_dup() {
    for_cases(12, |rng| {
        let producers = pick(rng, 1, 4) as usize;
        let per_producer = pick(rng, 0, 16) as usize;
        let capacity = pick(rng, 1, 8) as usize;
        let seed = rng.next_u64();
        let mut sim = Sim::new(SimConfig::default().with_seed(seed));
        let q: BoundedQueue<(usize, usize)> =
            BoundedQueue::new_in_sim(&mut sim, "q", capacity, None);
        for p in 0..producers {
            let q = q.clone();
            let _ = sim.fork_root(&format!("p{p}"), Priority::of(4), move |ctx| {
                let mut rng = ctx.rng();
                for i in 0..per_producer {
                    ctx.work(micros(rng.next_below(500)));
                    q.put(ctx, (p, i));
                }
            });
        }
        let total = producers * per_producer;
        let qc = q.clone();
        let h = sim.fork_root("consumer", Priority::of(3), move |ctx| {
            let mut got = Vec::new();
            for _ in 0..total {
                got.push(qc.take(ctx).expect("queue not closed"));
            }
            got
        });
        let r = sim.run(RunLimit::For(secs(30)));
        assert!(!r.deadlocked());
        let got = h.into_result().unwrap().unwrap();
        assert_eq!(got.len(), total);
        for p in 0..producers {
            let seq: Vec<usize> = got
                .iter()
                .filter(|(pp, _)| *pp == p)
                .map(|(_, i)| *i)
                .collect();
            assert_eq!(seq, (0..per_producer).collect::<Vec<_>>());
        }
    });
}

/// Sleep quantization: a plain sleep wakes at a timer tick, at or after
/// the requested interval, and strictly less than one granularity late.
#[test]
fn sleep_quantization_bounds() {
    for_cases(24, |rng| {
        let offset_us = pick(rng, 0, 200_000);
        let sleep_us = pick(rng, 1, 200_000);
        let mut sim = Sim::new(SimConfig::default());
        let g = sim.config().granularity();
        let h = sim.fork_root("s", Priority::DEFAULT, move |ctx| {
            ctx.sleep_precise(micros(offset_us.max(1)));
            let before = ctx.now();
            ctx.sleep(micros(sleep_us));
            (before, ctx.now())
        });
        sim.run(RunLimit::ToCompletion);
        let (before, after) = h.into_result().unwrap().unwrap();
        let slept = after.since(before);
        assert!(slept >= micros(sleep_us), "slept {slept} < {sleep_us}us");
        assert!(
            slept.as_micros() < sleep_us + g.as_micros(),
            "slept {slept}, requested {sleep_us}us, granularity {g}"
        );
        assert_eq!(after.as_micros() % g.as_micros(), 0, "woke off-tick");
    });
}

/// round_up_to: result is a multiple of g, >= input, < input + g.
#[test]
fn round_up_properties() {
    for_cases(200, |rng| {
        let t = pick(rng, 0, 10_000_000);
        let g = pick(rng, 1, 100_000);
        let rounded = SimTime::from_micros(t).round_up_to(micros(g));
        assert_eq!(rounded.as_micros() % g, 0);
        assert!(rounded.as_micros() >= t);
        assert!(rounded.as_micros() < t + g);
    });
}

/// Interval histograms conserve counts and total time.
#[test]
fn histogram_conservation() {
    for_cases(24, |rng| {
        let n = pick(rng, 0, 200) as usize;
        let intervals: Vec<u64> = (0..n).map(|_| rng.next_below(200_000)).collect();
        let mut h = threadstudy::trace::IntervalHistogram::paper_default();
        let mut total = 0u64;
        for &us in &intervals {
            h.record(micros(us));
            total += us;
        }
        assert_eq!(h.count(), intervals.len() as u64);
        assert_eq!(h.total_time(), micros(total));
        let f = h.fraction_between(SimDuration::ZERO, millis(5));
        assert!((0.0..=1.0).contains(&f));
        let rows = h.rows();
        let sum: u64 = rows.iter().map(|(_, n, _, _)| n).sum();
        assert_eq!(sum, intervals.len() as u64);
    });
}

/// The deterministic RNG respects bounds and reproduces streams.
#[test]
fn rng_bounds_and_determinism() {
    for_cases(50, |rng| {
        let seed = rng.next_u64();
        let bound = pick(rng, 1, 1_000_000);
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..50 {
            let x = a.next_below(bound);
            assert!(x < bound);
            assert_eq!(x, b.next_below(bound));
        }
    });
}

/// At any CPU count a run delivers exactly the same results and (for a
/// fixed seed) identical statistics on every rerun, monitors exclude, and
/// virtual CPU is conserved: what the threads were charged is the work
/// they asked for plus the primitives' costs, and no more of it than the
/// CPUs had time for.
#[test]
fn mp_determinism() {
    for_cases(8, |rng| {
        let cpus = pick(rng, 1, 5);
        let seed = rng.next_u64();
        let run = || {
            let cfg = SimConfig::default().with_seed(seed);
            let (primitive, window) = (cfg.primitive_cost, cfg.metalock_cost);
            let mut sim = Sim::with_cpus(cfg, cpus as usize);
            let m = sim.monitor("m", (0u64, false));
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let m = m.clone();
                    let prio = Priority::of(2 + (t % 3) as u8);
                    sim.fork_root(&format!("t{t}"), prio, move |ctx| {
                        let mut rng = ctx.rng();
                        let mut asked = 0;
                        for _ in 0..10 {
                            let outside = rng.next_below(1500);
                            ctx.work(micros(outside));
                            let mut g = ctx.enter(&m);
                            let was_inside = g.with_mut(|s| std::mem::replace(&mut s.1, true));
                            assert!(!was_inside, "two threads inside the monitor");
                            ctx.work(micros(40));
                            g.with_mut(|s| *s = (s.0 + 1, false));
                            asked += outside + 40;
                        }
                        asked
                    })
                })
                .collect();
            let r = sim.run(RunLimit::For(secs(30)));
            assert!(!r.deadlocked());
            let asked = workers
                .into_iter()
                .map(|h| h.into_result().unwrap().unwrap());
            let stats = sim.stats();
            // An uncontended ENTER and every EXIT cost one primitive; a
            // contended ENTER costs its metalock window, which only the
            // uniprocessor has.
            let (enters, contended) = (stats.ml_enters, stats.ml_contended);
            let window = if cpus == 1 { window.as_micros() } else { 0 };
            let primitives = (2 * enters - contended) * primitive.as_micros() + contended * window;
            let total = stats.total_cpu.as_micros();
            assert_eq!(total, asked.sum::<u64>() + primitives, "{cpus} cpus");
            let by_priority = stats.cpu_by_priority.iter().map(|d| d.as_micros());
            assert_eq!(by_priority.sum::<u64>(), total);
            assert!(
                total <= r.elapsed.as_micros() * cpus,
                "{cpus} cpus in {}",
                r.elapsed
            );
            (sim.now().as_micros(), stats.switches, contended)
        };
        assert_eq!(run(), run());
    });
}

/// The same bounded queue on the real-thread backend loses and
/// duplicates nothing under genuinely concurrent producers.
#[test]
fn mesa_queue_no_loss_no_dup() {
    use threadstudy::mesa::RealCtx;
    use threadstudy::pcr::Runtime;
    for_cases(8, |rng| {
        let producers = pick(rng, 1, 4) as usize;
        let per_producer = pick(rng, 0, 32) as usize;
        let capacity = pick(rng, 1, 8) as usize;
        let ctx = RealCtx::root();
        let q: BoundedQueue<(usize, usize), RealCtx> = BoundedQueue::new(&ctx, "q", capacity, None);
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let q = q.clone();
                ctx.fork(&format!("p{p}"), move |ctx: &RealCtx| {
                    for i in 0..per_producer {
                        q.put(ctx, (p, i));
                    }
                })
                .unwrap()
            })
            .collect();
        let total = producers * per_producer;
        let mut got = Vec::with_capacity(total);
        for _ in 0..total {
            got.push(q.take(&ctx).expect("open queue"));
        }
        for h in handles {
            ctx.join(h).unwrap();
        }
        assert_eq!(got.len(), total);
        for p in 0..producers {
            let seq: Vec<usize> = got
                .iter()
                .filter(|(pp, _)| *pp == p)
                .map(|(_, i)| *i)
                .collect();
            assert_eq!(seq, (0..per_producer).collect::<Vec<_>>());
        }
    });
}

/// The guarded button's state machine: any press sequence with gaps
/// ends in a consistent state, and a fire happens only from Armed.
#[test]
fn guarded_button_state_machine() {
    for_cases(12, |rng| {
        let n = pick(rng, 1, 10) as usize;
        let gaps_ms: Vec<u64> = (0..n).map(|_| rng.next_below(400)).collect();
        use threadstudy::paradigms::oneshot::{GuardState, GuardedButton};
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("ui", Priority::of(5), move |ctx| {
            let b = GuardedButton::new(millis(100), millis(200));
            let mut fires = 0u32;
            for gap in gaps_ms {
                let before = b.state();
                let fired = b.press(ctx);
                if fired {
                    fires += 1;
                    // Fires only from the armed state, and re-guards.
                    assert_eq!(before, GuardState::Armed);
                    assert_eq!(b.state(), GuardState::Guarded);
                }
                ctx.sleep_precise(millis(gap.max(1)));
            }
            fires
        });
        let r = sim.run(RunLimit::For(secs(30)));
        assert!(!r.deadlocked());
        let _fires = h.into_result().unwrap().unwrap();
    });
}

/// Slack merging: after merging any item stream, batch keys are unique
/// and each key carries the latest version fed for it.
#[test]
fn slack_merge_by_key_invariants() {
    for_cases(32, |rng| {
        let n = pick(rng, 0, 100) as usize;
        let items: Vec<(u32, u32)> = (0..n)
            .map(|_| (rng.next_below(8) as u32, rng.next_below(1000) as u32))
            .collect();
        use threadstudy::paradigms::slack::merge_by_key;
        let mut merge = merge_by_key(|r: &(u32, u32)| r.0);
        let mut batch = Vec::new();
        for &item in &items {
            let _ = merge(&mut batch, item);
        }
        // Unique keys.
        let mut keys: Vec<u32> = batch.iter().map(|r| r.0).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate keys in batch");
        // Latest version per key; every fed key present.
        for &(k, _) in &items {
            let latest = items.iter().rev().find(|(kk, _)| *kk == k).unwrap().1;
            let in_batch = batch.iter().find(|(kk, _)| *kk == k).unwrap().1;
            assert_eq!(in_batch, latest, "key {k} stale");
        }
        assert!(batch.len() <= items.len());
    });
}

/// A timeline renders any event window without panicking and names
/// every thread that appears.
#[test]
fn timeline_renders_any_window() {
    for_cases(12, |rng| {
        let start_ms = pick(rng, 0, 5_000);
        let span_ms = pick(rng, 1, 500);
        let cols = pick(rng, 1, 200) as usize;
        use threadstudy::trace::Timeline;
        let mut sim = Sim::new(SimConfig::default().with_seed(9));
        sim.set_sink(Box::new(Timeline::new()));
        let m = sim.monitor("m", 0u32);
        let cv = sim.condition(&m, "cv", Some(millis(50)));
        let _ = sim.fork_root("noisy", Priority::of(4), move |ctx| loop {
            let mut g = ctx.enter(&m);
            g.with_mut(|v| *v += 1);
            g.notify(&cv);
            let _ = g.wait(&cv);
        });
        sim.run(RunLimit::For(secs(2)));
        let infos = sim.threads();
        let mut tl = *threadstudy::trace::take_collector::<Timeline>(&mut sim).unwrap();
        tl.name_threads(&infos);
        let text = tl.render(SimTime::from_micros(start_ms * 1000), millis(span_ms), cols);
        assert!(text.contains("legend"));
    });
}

/// §5.3: NOTIFY wakes exactly one waiter. With every waiter already
/// blocked on the CV (waiters run at higher priority than the
/// notifier), each of the N notifies names exactly one distinct wakee
/// in the event stream, every wait ends `Notified`, and every waiter
/// consumes exactly one token.
#[test]
fn notify_wakes_exactly_one_waiter() {
    for_cases(10, |rng| {
        let waiters = pick(rng, 2, 7) as usize;
        let seed = rng.next_u64();
        let mut sim = Sim::new(SimConfig::default().with_seed(seed));
        sim.set_sink(Box::new(VecSink::default()));
        let m = sim.monitor("m", 0u32);
        let cv = sim.condition(&m, "cv", None);
        for w in 0..waiters {
            let (m, cv) = (m.clone(), cv.clone());
            let _ = sim.fork_root(&format!("w{w}"), Priority::of(5), move |ctx| {
                let mut g = ctx.enter(&m);
                while g.with(|tokens| *tokens == 0) {
                    g.wait(&cv);
                }
                g.with_mut(|tokens| *tokens -= 1);
            });
        }
        // Lower priority: runs only once every waiter is blocked.
        let (m2, cv2) = (m.clone(), cv.clone());
        let _ = sim.fork_root("notifier", Priority::of(3), move |ctx| {
            for _ in 0..waiters {
                let mut g = ctx.enter(&m2);
                g.with_mut(|tokens| *tokens += 1);
                g.notify(&cv2);
                drop(g);
                ctx.work(micros(200));
            }
        });
        let r = sim.run(RunLimit::For(secs(30)));
        assert!(!r.deadlocked());
        let sink = sim.take_sink().unwrap();
        let events = sink.into_any().downcast::<VecSink>().unwrap().events;
        let mut woken = Vec::new();
        let mut wake_outcomes = Vec::new();
        for ev in &events {
            match ev.kind {
                EventKind::Notify { woken: w, .. } => woken.push(w),
                EventKind::CvWake { outcome, .. } => wake_outcomes.push(outcome),
                _ => {}
            }
        }
        assert_eq!(woken.len(), waiters, "one NOTIFY per token");
        let mut wakees: Vec<u32> = woken
            .iter()
            .map(|w| {
                w.expect("NOTIFY with a populated queue wakes someone")
                    .as_u32()
            })
            .collect();
        wakees.sort_unstable();
        wakees.dedup();
        assert_eq!(wakees.len(), waiters, "each NOTIFY woke a distinct waiter");
        assert_eq!(wake_outcomes.len(), waiters, "exactly one wake per NOTIFY");
        assert!(wake_outcomes.iter().all(|o| *o == WaitOutcome::Notified));
        // Every waiter consumed exactly one token.
        let h = sim.fork_root("probe", Priority::of(6), move |ctx| {
            let g = ctx.enter(&m);
            g.with(|tokens| *tokens)
        });
        sim.run(RunLimit::For(secs(1)));
        assert_eq!(h.into_result().unwrap().unwrap(), 0);
    });
}

/// §5.3: waiters written Mesa-style (re-check the predicate in a loop)
/// survive injected spurious wakeups with predicates intact — no token
/// is consumed that was never produced, everything still completes, and
/// the injection actually fired.
#[test]
fn waiters_survive_spurious_wakeups() {
    let mut total_spurious = 0u64;
    for_cases(10, |rng| {
        let waiters = pick(rng, 2, 6) as usize;
        let seed = rng.next_u64();
        let chaos = ChaosConfig::none()
            .spurious_wakeups(0.9)
            .spurious_delay(millis(2));
        let mut sim = Sim::new(SimConfig::default().with_seed(seed).with_chaos(chaos));
        let m = sim.monitor("m", 0i64);
        let cv = sim.condition(&m, "cv", None);
        let mut handles = Vec::new();
        for w in 0..waiters {
            let (m, cv) = (m.clone(), cv.clone());
            handles.push(
                sim.fork_root(&format!("w{w}"), Priority::of(5), move |ctx| {
                    let mut g = ctx.enter(&m);
                    // Mesa discipline: the predicate guards the consume, so a
                    // spurious resume just loops back into WAIT.
                    g.wait_until(&cv, |tokens| *tokens > 0);
                    g.with_mut(|tokens| {
                        assert!(*tokens > 0, "consumed a token that was never produced");
                        *tokens -= 1;
                    });
                }),
            );
        }
        let (m2, cv2) = (m.clone(), cv.clone());
        let _ = sim.fork_root("notifier", Priority::of(3), move |ctx| {
            for _ in 0..waiters {
                ctx.work(millis(10)); // Leave room for injected wakeups to land.
                let mut g = ctx.enter(&m2);
                g.with_mut(|tokens| *tokens += 1);
                g.notify(&cv2);
            }
        });
        let r = sim.run(RunLimit::For(secs(60)));
        assert!(!r.deadlocked(), "spurious wakeups must not wedge waiters");
        for h in handles {
            assert!(h.into_result().unwrap().is_ok(), "waiter survived");
        }
        total_spurious += sim.stats().chaos_spurious_wakeups;
        let h = sim.fork_root("probe", Priority::of(6), move |ctx| {
            let g = ctx.enter(&m);
            g.with(|tokens| *tokens)
        });
        sim.run(RunLimit::For(secs(1)));
        assert_eq!(h.into_result().unwrap().unwrap(), 0, "tokens conserved");
    });
    assert!(total_spurious > 0, "injection never fired at p=0.9");
}
