//! A world owns no OS thread. One test, alone in its binary: the
//! process's thread count is only steady while no sibling test comes
//! and goes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pcr::{secs, Priority, RunLimit, Sim, SimConfig};

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let row = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    row.expect("no Threads: row").trim().parse().unwrap()
}

struct CountsDrop(Arc<AtomicUsize>);

impl Drop for CountsDrop {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn dropping_a_sim_with_a_thousand_suspended_bodies_unwinds_each_once_on_this_os_thread() {
    const BODIES: usize = 1_000;
    let before = os_threads();
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.monitor("m", ());
    let never = sim.condition(&m, "never", None);
    for i in 0..BODIES {
        let local = CountsDrop(Arc::clone(&drops));
        let (m, never) = (m.clone(), never.clone());
        let _ = sim.fork_root(&format!("b{i}"), Priority::DEFAULT, move |ctx| {
            let _local = local;
            // Suspended three ways: asleep, waiting inside a monitor, and
            // preempted in the middle of work.
            match i % 3 {
                0 => loop {
                    ctx.sleep(secs(10));
                },
                1 => {
                    let mut g = ctx.enter(&m);
                    loop {
                        g.wait(&never);
                    }
                }
                _ => loop {
                    ctx.work(secs(1));
                },
            }
        });
    }
    assert_eq!(
        os_threads(),
        before,
        "building a world spawned an OS thread"
    );
    sim.run(RunLimit::For(secs(5)));
    assert_eq!(sim.live_threads(), BODIES);
    assert_eq!(os_threads(), before, "running a world spawned an OS thread");
    // Never-started bodies: forked after the last run, dropped unrun.
    for i in 0..10 {
        let local = CountsDrop(Arc::clone(&drops));
        let _ = sim.fork_root(&format!("late{i}"), Priority::DEFAULT, move |_| {
            let _local = local;
            unreachable!("forked after the last run");
        });
    }
    assert_eq!(drops.load(Ordering::Relaxed), 0);
    drop(sim);
    assert_eq!(drops.load(Ordering::Relaxed), BODIES + 10);
    assert_eq!(os_threads(), before, "dropping a world left an OS thread");
}
