//! Benchmarks of the paradigm components and the §5/§6 experiments:
//! one target per experiment so `cargo bench` exercises every
//! reproduction code path (E5, E6, E7, E12 run shortened here; the full
//! measurements come from `repro experiments`).
//!
//! Plain `main()` harness (no external bench framework is available
//! offline): each target runs a fixed iteration count after a warmup and
//! reports mean wall time per iteration.

use std::time::Instant;

use mesa::RealCtx;
use pcr::{micros, millis, NotifyMode, Priority, RunLimit, Runtime, Sim, SimConfig, SimDuration};

fn bench<F: FnMut()>(name: &str, iters: u32, mut f: F) {
    f(); // Warmup.
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = start.elapsed() / iters;
    println!("{name:40} {per:>12.2?}/iter  ({iters} iters)");
}

fn main() {
    bench("paradigm_mbqueue_500_actions", 5, || {
        let mut sim = Sim::new(SimConfig::default());
        let _ = sim.fork_root("driver", Priority::of(5), |ctx| {
            let mb = paradigms::serializer::MbQueue::new(ctx, "mb", Priority::of(4), 64);
            for _ in 0..500 {
                mb.enqueue(ctx, micros(10), |_| {});
            }
            mb.stop(ctx);
        });
        sim.run(RunLimit::For(pcr::secs(30)));
    });
    bench("real_mbqueue_5000_actions", 5, || {
        let ctx = &RealCtx::root();
        let mb = paradigms::serializer::MbQueue::new(ctx, "mb", Priority::of(4), 64);
        for _ in 0..5000 {
            mb.enqueue(ctx, SimDuration::ZERO, |_| {});
        }
        mb.stop(ctx);
        while mb.backlog(ctx) > 0 {
            ctx.yield_now();
        }
    });
    for policy in [
        paradigms::slack::SlackPolicy::PlainYield,
        paradigms::slack::SlackPolicy::YieldButNotToMe,
    ] {
        bench(&format!("slack_e5_{policy:?}"), 3, || {
            xpipe::slackbench::run_slack(xpipe::slackbench::SlackConfig {
                policy,
                requests: 300,
                ..Default::default()
            });
        });
    }
    for mode in [NotifyMode::Immediate, NotifyMode::DeferredReschedule] {
        bench(&format!("notify_e6_{mode:?}"), 3, || {
            xpipe::spurious::run_notify_bench(mode, 200);
        });
    }
    bench("xlib_e12_modified_xlib", 3, || {
        xpipe::xlib::run_modified_xlib();
    });
    bench("xlib_e12_x1", 3, || {
        xpipe::xlib::run_x1();
    });
    for cpus in [1usize, 4] {
        bench(
            &format!("exploiters_e13_fork_join_16x25ms_{cpus}cpu"),
            3,
            || {
                xpipe::exploiters::fork_join_makespan(cpus, 16, millis(25));
            },
        );
    }
    bench("real_pooled_map_10000_items", 5, || {
        let items = (0..10_000u32).collect();
        let cost = SimDuration::ZERO;
        paradigms::exploit::pooled_map(&RealCtx::root(), "p", 4, items, cost, |_, x| x);
    });
    bench("paradigm_guarded_button_cycle", 10, || {
        let mut sim = Sim::new(SimConfig::default());
        let _ = sim.fork_root("ui", Priority::of(5), |ctx| {
            let button = paradigms::oneshot::GuardedButton::new(millis(100), millis(400));
            let _ = button.press(ctx);
            ctx.sleep_precise(millis(200));
            assert!(button.press(ctx));
        });
        sim.run(RunLimit::For(pcr::secs(5)));
    });
}
