//! The paths that take a thread out of the *middle* of a ready or CV
//! queue, pinned by dispatch order under both level-queue policies.

use pcr::{
    micros, millis, secs, ChaosConfig, EventKind, PolicyKind, Priority, RunLimit, Sim, SimConfig,
    SimTime, StopReason, VecSink,
};

const LEVEL_POLICIES: [PolicyKind; 2] = [PolicyKind::RoundRobin, PolicyKind::Mlfq];

fn traced(cfg: SimConfig) -> Sim {
    let mut sim = Sim::new(cfg);
    sim.set_sink(Box::new(VecSink::default()));
    sim
}

/// The name of every thread dispatched, in `Switch` order.
fn dispatch_order(sim: &mut Sim) -> Vec<String> {
    let sink = sim.take_sink().expect("traced sim");
    let events = sink.into_any().downcast::<VecSink>().unwrap().events;
    let names: Vec<String> = sim.threads_iter().map(|t| t.name.to_string()).collect();
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Switch { to, .. } => Some(names[to.as_u32() as usize].clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn set_thread_priority_requeues_a_ready_thread_exactly_once() {
    for policy in LEVEL_POLICIES {
        let mut sim = traced(SimConfig::default().with_policy(policy));
        let _ = sim.fork_root("hog", Priority::of(4), |ctx| ctx.work(millis(4)));
        let _ = sim.fork_root("first", Priority::of(3), |ctx| ctx.work(millis(1)));
        let second = sim.fork_root("second", Priority::of(3), |ctx| ctx.work(millis(1)));
        sim.run(RunLimit::For(millis(1)));
        // "second" sits behind "first" at level 3; lifted to 5 it must
        // leave that queue and preempt the hog.
        assert!(sim.set_thread_priority(second.tid(), Priority::of(5)));
        let r = sim.run(RunLimit::ToCompletion);
        assert_eq!(r.reason, StopReason::AllExited, "{policy}");
        assert_eq!(
            dispatch_order(&mut sim),
            ["hog", "second", "hog", "first"],
            "{policy}"
        );
    }
}

#[test]
fn chaos_stall_takes_a_ready_thread_out_of_its_queue() {
    for policy in LEVEL_POLICIES {
        let chaos = ChaosConfig::none().stall("victim", SimTime::from_micros(5_000), millis(30));
        let mut sim = traced(SimConfig::default().with_policy(policy).with_chaos(chaos));
        let _ = sim.fork_root("hog", Priority::of(6), |ctx| ctx.work(millis(8)));
        let _ = sim.fork_root("victim", Priority::of(3), |ctx| ctx.work(millis(1)));
        let _ = sim.fork_root("peer", Priority::of(3), |ctx| ctx.work(millis(1)));
        let r = sim.run(RunLimit::ToCompletion);
        assert_eq!(r.reason, StopReason::AllExited, "{policy}");
        assert_eq!(sim.stats().chaos_stalls, 1, "{policy}");
        // Unstalled, "victim" would run before "peer".
        assert_eq!(
            dispatch_order(&mut sim),
            ["hog", "peer", "victim"],
            "{policy}"
        );
    }
}

#[test]
fn yield_but_not_to_me_skips_the_yielder_at_the_head_of_the_top_level() {
    for policy in LEVEL_POLICIES {
        let mut sim = traced(SimConfig::default().with_policy(policy));
        let _ = sim.fork_root("yielder", Priority::of(6), |ctx| {
            ctx.work(micros(100));
            ctx.yield_but_not_to_me();
            ctx.work(micros(100));
        });
        let _ = sim.fork_root("low-a", Priority::of(3), |ctx| ctx.work(millis(1)));
        let _ = sim.fork_root("low-b", Priority::of(3), |ctx| ctx.work(millis(1)));
        let r = sim.run(RunLimit::ToCompletion);
        assert_eq!(r.reason, StopReason::AllExited, "{policy}");
        // The yielder is requeued alone at level 6; the pick passes over
        // it to level 3, and its entry is still there afterwards.
        assert_eq!(
            dispatch_order(&mut sim),
            ["yielder", "low-a", "yielder", "low-b"],
            "{policy}"
        );
    }
}

#[test]
fn ten_thousand_waiters_all_time_out() {
    const WAITERS: usize = 10_000;
    for policy in LEVEL_POLICIES {
        let cfg = SimConfig::default()
            .with_policy(policy)
            .with_max_threads(WAITERS + 2);
        let mut sim = Sim::new(cfg);
        let m = sim.monitor("gate", ());
        let never = sim.condition(&m, "never", Some(millis(50)));
        for i in 0..WAITERS {
            let (m, never) = (m.clone(), never.clone());
            let _ = sim.fork_root(&format!("w{i}"), Priority::DEFAULT, move |ctx| {
                let _ = ctx.enter(&m).wait(&never);
            });
        }
        // Long after the last timeout: the queue must be empty by then.
        let _ = sim.fork_root("closer", Priority::DEFAULT, move |ctx| {
            ctx.sleep_precise(secs(1));
            let g = ctx.enter(&m);
            g.broadcast(&never);
        });
        let r = sim.run(RunLimit::ToCompletion);
        assert_eq!(r.reason, StopReason::AllExited, "{policy}");
        assert_eq!(sim.stats().cv_timeouts, WAITERS as u64, "{policy}");
    }
}
