//! Microbenchmarks of the runtime's primitives — the costs §2 and §5
//! discuss ("the scheduler takes less than 50 microseconds to switch
//! between threads"; "the modest cost of creating a thread"). These
//! measure the *simulator's* real-time costs per simulated primitive,
//! i.e. how expensive reproduction experiments are to run, alongside the
//! real-thread `mesa` backend's monitor for comparison.
//!
//! Plain `main()` harness (no external bench framework is available
//! offline): each target runs a fixed iteration count after a short
//! warmup and reports mean wall time per iteration.

use std::time::Instant;

use pcr::{micros, millis, Guard, Priority, RunLimit, Runtime, Sim, SimConfig};

fn bench<F: FnMut()>(name: &str, iters: u32, mut f: F) {
    for _ in 0..2 {
        f(); // Warmup.
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = start.elapsed() / iters;
    println!("{name:40} {per:>12.2?}/iter  ({iters} iters)");
}

fn sim_fork_join() {
    let mut sim = Sim::new(SimConfig::default());
    let _ = sim.fork_root("main", Priority::DEFAULT, |ctx| {
        for i in 0..100 {
            let h = ctx.fork(&format!("c{i}"), |_| 1u32).unwrap();
            ctx.join(h).unwrap();
        }
    });
    sim.run(RunLimit::ToCompletion);
}

fn sim_monitor_cycle() {
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.monitor("m", 0u64);
    let _ = sim.fork_root("main", Priority::DEFAULT, move |ctx| {
        for _ in 0..1000 {
            let mut g = ctx.enter(&m);
            g.with_mut(|v| *v += 1);
        }
    });
    sim.run(RunLimit::ToCompletion);
}

fn sim_notify_wait() {
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.monitor("m", 0u32);
    let cv = sim.condition(&m, "cv", Some(millis(50)));
    let (m2, cv2) = (m.clone(), cv.clone());
    let _ = sim.fork_root("a", Priority::of(4), move |ctx| {
        let mut g = ctx.enter(&m2);
        for _ in 0..500 {
            g.with_mut(|v| *v += 1);
            g.notify(&cv2);
            let _ = g.wait(&cv2);
        }
    });
    let _ = sim.fork_root("b", Priority::of(4), move |ctx| {
        let mut g = ctx.enter(&m);
        for _ in 0..500 {
            g.with_mut(|v| *v += 1);
            g.notify(&cv);
            let _ = g.wait(&cv);
        }
    });
    sim.run(RunLimit::For(pcr::secs(60)));
}

fn sim_timeslicing() {
    let mut sim = Sim::new(SimConfig::default());
    for i in 0..4 {
        let _ = sim.fork_root(&format!("hog{i}"), Priority::DEFAULT, |ctx| loop {
            ctx.work(micros(500));
        });
    }
    sim.run(RunLimit::For(pcr::secs(1)));
}

fn main() {
    bench("sim_fork_join_100", 20, sim_fork_join);
    bench("sim_monitor_enter_exit_1000", 20, sim_monitor_cycle);
    bench("sim_notify_wait_pingpong_500", 20, sim_notify_wait);
    bench("sim_timeslicing_1s_virtual", 10, sim_timeslicing);
    let ctx = mesa::RealCtx::root();
    let m = ctx.new_monitor("m", 0u64);
    bench("mesa_monitor_enter_exit_1000", 50, || {
        for _ in 0..1000 {
            ctx.enter(&m).with_mut(|v| *v += 1);
        }
    });
}
