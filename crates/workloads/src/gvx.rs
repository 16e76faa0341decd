//! The synthetic GVX (GlobalView) world.
//!
//! GVX behaves "noticeably differently" from Cedar (§3): an idle system
//! contains 22 eternal threads and **forks no additional threads** — not
//! for keyboard, mouse, or windowing activity. Almost every thread runs
//! at priority 3; the two lowest levels hold a few background helpers,
//! two of which never ran during the paper's experiments; level 5 is
//! used (Cedar's unused level) and level 7 is not; level 6 belongs to
//! the SystemDaemon. Thread switching is far slower (33–60/sec), CV
//! waits are few (32–38/sec) and overwhelmingly timeouts (up to 99 %),
//! and monitor contention is *higher* than Cedar's (up to 0.4 % when
//! scrolling) because its monitors are coarser and held longer.
//!
//! Structurally: input events land in a polled queue (no notifies — the
//! poller wakes on its own period and drains in batches, which is why
//! mouse traffic adds almost no switches), and one serializer thread
//! per application processes them — "in the Macintosh, Microsoft
//! Windows, and X programming models ... each application runs in a
//! serializer thread".

use std::collections::VecDeque;

use paradigms::Paradigm;
use pcr::{micros, millis, secs, Priority, Sim};

use crate::spec::Benchmark;
use crate::world::{next_gap, InputEvent, LibraryPool, SleeperBus, SleeperSpec};

/// GVX library layout: a small pool with *overlapping* hot ranges —
/// coarse monitors shared across threads, the source of its higher
/// contention.
pub(crate) mod lib_map {
    /// Keystroke handling.
    pub const KEYBOARD: (usize, usize) = (44, 150);
    /// Scroll/repaint structures.
    pub const DISPLAY: (usize, usize) = (194, 160);
    /// Total pool size.
    pub const POOL: usize = 400;
}

/// The hot screen monitor held across repaint work — GVX's contention
/// hotspot.
const SCREEN_HOLD_SCROLL: pcr::SimDuration = millis(12);

fn sleeper_specs() -> Vec<SleeperSpec> {
    let p = Priority::of;
    let mut v = Vec::new();
    // 15 standard sleepers, all priority 3 (§3: "GVX sets almost all of
    // its threads to priority level 3").
    let names = [
        "GVX.CaretBlinker",
        "GVX.ScreenSaverWatch",
        "GVX.PropertySheetPoll",
        "GVX.DocCacheSweep",
        "GVX.FontSweep",
        "GVX.NetKeepalive",
        "GVX.PrintSpoolerWatch",
        "GVX.MailPoll",
        "GVX.FilerPoll",
        "GVX.SelectionWatch",
        "GVX.WorkspaceHeartbeat",
        "GVX.IconRefresher",
        "GVX.ClockUpdater",
        "GVX.SessionWatch",
        "GVX.UndoLogFlusher",
    ];
    for (i, name) in names.iter().enumerate() {
        let period = match i % 3 {
            0 => millis(930),
            1 => millis(480),
            _ => millis(480),
        };
        v.push(SleeperSpec {
            name,
            priority: p(3),
            period,
            wake_work: micros(500),
            touches: 12,
        });
    }
    // 3 low-priority background helpers that do run, slowly.
    v.push(SleeperSpec {
        name: "GVX.BackgroundRepaginator",
        priority: p(2),
        period: secs(5),
        wake_work: millis(2),
        touches: 6,
    });
    v.push(SleeperSpec {
        name: "GVX.DiskCompactor",
        priority: p(1),
        period: secs(8),
        wake_work: millis(3),
        touches: 6,
    });
    v.push(SleeperSpec {
        name: "GVX.StatisticsDaemon",
        priority: p(2),
        period: secs(6),
        wake_work: millis(1),
        touches: 4,
    });
    v
}

/// Modeled sites with their paradigm tags, for the census cross-check.
/// Tags follow Table 4's *static* classification: the three periodic
/// background daemons and the display watchdog are created through the
/// `PeriodicalFork`-style package, so their static sites count as
/// encapsulated forks even though they behave as sleepers dynamically
/// (§4.9 cautions exactly this: "the static paradigm can't be predicted
/// from the dynamic lifetime"). The two never-run helpers are tagged
/// unknown — fittingly, since the authors could not observe them either.
pub fn modeled_sites() -> Vec<(String, Paradigm)> {
    let mut v: Vec<(String, Paradigm)> = sleeper_specs()
        .iter()
        .map(|s| {
            let tag = match s.name {
                "GVX.BackgroundRepaginator" | "GVX.DiskCompactor" | "GVX.StatisticsDaemon" => {
                    Paradigm::EncapsulatedFork
                }
                _ => Paradigm::Sleeper,
            };
            (s.name.to_string(), tag)
        })
        .collect();
    v.push(("GVX.InputDevice".into(), Paradigm::GeneralPump));
    v.push(("GVX.InputPoller".into(), Paradigm::Serializer));
    v.push(("GVX.IdleHelperA".into(), Paradigm::Unknown));
    v.push(("GVX.IdleHelperB".into(), Paradigm::Unknown));
    v.push(("GVX.DisplayWatchdog".into(), Paradigm::EncapsulatedFork));
    v.push(("GVX.EchoPainter".into(), Paradigm::GeneralPump));
    v
}

/// Installs the GVX world configured for `bench` into `sim`.
pub fn install(sim: &mut Sim, bench: Benchmark) {
    let lib = LibraryPool::new(sim, lib_map::POOL);
    let specs = sleeper_specs();
    // Overlapping ranges: everyone shares the SHARED window (coarse
    // locking), offset slightly per thread.
    let starts: Vec<usize> = (0..specs.len()).map(|i| (i * 2) % 12).collect();
    let spans: Vec<usize> = specs.iter().map(|_| 16).collect();
    let bus = SleeperBus::install(sim, &specs, &lib, &starts, &spans);

    // The event queue is *polled*: the device appends under the queue
    // monitor but never notifies; the poller drains on its own period.
    let queue = sim.monitor("gvx-event-queue", VecDeque::<InputEvent>::new());
    let screen = sim.monitor("gvx-screen", 0u64);
    let screen_poller = screen.clone();

    // Device: batches events like a hardware ring buffer serviced at a
    // fixed scan rate (this is why GVX's switch rate barely moves with
    // mouse traffic).
    let (mk, rate): (fn(u32) -> InputEvent, f64) = match bench {
        Benchmark::Keyboard => (InputEvent::Key, 4.0),
        Benchmark::Mouse => (InputEvent::Motion, 20.0),
        Benchmark::Scroll => (InputEvent::Click, 1.0),
        _ => (InputEvent::Key, 0.0),
    };
    let poll_m = sim.monitor("gvx-poller.state", 0u32);
    let poll_cv = sim.condition(&poll_m, "gvx-poller.tick", Some(millis(180)));
    let qd = queue.clone();
    let (pm_dev, pcv_dev) = (poll_m.clone(), poll_cv.clone());
    let _ = sim.fork_root("GVX.InputDevice", Priority::of(5), move |ctx| {
        let mut rng = ctx.rng();
        let mut i = 0u32;
        if rate <= 0.0 {
            loop {
                ctx.sleep_precise(secs(3600));
            }
        }
        let scan = millis(200);
        loop {
            ctx.sleep_precise(scan);
            // How many events arrived during the scan period?
            let mut due = 0usize;
            let mut t = pcr::SimDuration::ZERO;
            loop {
                let gap = next_gap(&mut rng, rate);
                t += gap;
                if t > scan {
                    break;
                }
                due += 1;
            }
            if due > 0 {
                let mut has_key = false;
                let mut g = ctx.enter(&qd);
                g.with_mut(|q| {
                    for _ in 0..due {
                        i += 1;
                        let ev = mk(i);
                        has_key |= matches!(ev, InputEvent::Key(_) | InputEvent::Click(_));
                        q.push_back(ev);
                    }
                });
                drop(g);
                if has_key {
                    // Keystrokes demand snappy echo: wake the poller.
                    let mut g = ctx.enter(&pm_dev);
                    g.with_mut(|v| *v += 1);
                    g.notify(&pcv_dev);
                }
                // Motions stay silent: the poller polls (§5.6's contrast).
            }
        }
    });

    // The application serializer thread, at GVX's characteristic
    // priority 5 (the level Cedar never uses).
    let (k0, k1) = lib_map::KEYBOARD;
    let (d0, d1) = lib_map::DISPLAY;
    let mut kb = lib.cursor(k0, k1);
    let mut disp = lib.cursor(d0, d1);
    let mut mouse_track = lib.cursor(38, 4);
    let echo_m = sim.monitor("gvx-echo.pending", 0u32);
    let echo_cv = sim.condition(&echo_m, "gvx-echo.cv", Some(millis(930)));
    let (echo_m2, echo_cv2) = (echo_m.clone(), echo_cv.clone());
    let mut echo_cursor = lib.cursor(194, 20);
    let _ = sim.fork_root("GVX.EchoPainter", Priority::of(3), move |ctx| loop {
        let pending = {
            let mut g = ctx.enter(&echo_m2);
            let _ = g.wait(&echo_cv2);
            g.with_mut(std::mem::take)
        };
        for _ in 0..pending {
            ctx.work(millis(1));
            echo_cursor.touch_n(ctx, 6, micros(10));
        }
    });
    let _ = sim.fork_root("GVX.InputPoller", Priority::of(5), move |ctx| loop {
        {
            let mut g = ctx.enter(&poll_m);
            let _ = g.wait(&poll_cv);
        }
        let drained: Vec<InputEvent> = {
            let mut g = ctx.enter(&queue);
            g.with_mut(|q| q.drain(..).collect())
        };
        for ev in drained {
            match ev {
                InputEvent::Key(i) => {
                    ctx.work(millis(2));
                    kb.touch_n(ctx, 200, micros(4));
                    bus.ping(ctx, i as u64, 3);
                    let mut g = ctx.enter(&echo_m);
                    g.with_mut(|v| *v += 1);
                    g.notify(&echo_cv);
                }
                InputEvent::Motion(_) => {
                    // Motions are cheap and silent, touching only a
                    // couple of cursor-tracking monitors.
                    ctx.work(micros(150));
                    mouse_track.touch_n(ctx, 2, micros(4));
                }
                InputEvent::Click(i) => {
                    // Scroll: hold the coarse screen monitor across the
                    // whole repaint — the §3 contention hotspot (0.4 %).
                    let mut g = ctx.enter(&screen_poller);
                    ctx.work(SCREEN_HOLD_SCROLL);
                    g.with_mut(|v| *v += 1);
                    drop(g);
                    disp.touch_n(ctx, 330, micros(30));
                    bus.ping(ctx, i as u64, 2);
                }
            }
        }
    });

    // Two low-priority helpers that never run (§3: "Two of the five
    // low-priority threads in fact never ran during our experiments"):
    // they wait on conditions nobody signals.
    for (name, prio) in [("GVX.IdleHelperA", 1), ("GVX.IdleHelperB", 2)] {
        let m = sim.monitor(&format!("{name}.state"), ());
        let cv = sim.condition(&m, &format!("{name}.never"), None);
        let _ = sim.fork_root(name, Priority::of(prio), move |ctx| {
            let mut g = ctx.enter(&m);
            loop {
                let _ = g.wait(&cv);
            }
        });
    }

    // A display watchdog above the serializer's priority: when it wakes
    // during the long screen hold of a scroll repaint it preempts the
    // holder and immediately blocks on the coarse screen monitor — the
    // contention the paper measures at up to 0.4 % for GVX scrolling.
    let screen2 = screen;
    let _ = sim.fork_root("GVX.DisplayWatchdog", Priority::of(6), move |ctx| loop {
        ctx.sleep_precise(millis(250));
        let mut g = ctx.enter(&screen2);
        ctx.work(micros(50));
        g.with_mut(|v| *v += 1);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{RunLimit, SimConfig};

    #[test]
    fn gvx_priority_profile_matches_the_paper() {
        // Almost all threads at 3; a few low-priority helpers; level 5
        // used (the poller); level 7 never.
        let specs = sleeper_specs();
        let at3 = specs.iter().filter(|s| s.priority.get() == 3).count();
        assert!(
            at3 >= specs.len() - 3,
            "only {at3} of {} at P3",
            specs.len()
        );
        assert!(specs.iter().all(|s| s.priority.get() != 7));
    }

    #[test]
    fn every_benchmark_installs_cleanly() {
        for bench in crate::spec::Benchmark::GVX {
            let mut sim = pcr::Sim::new(SimConfig::default().with_seed(1));
            install(&mut sim, bench);
            let r = sim.run(RunLimit::For(pcr::secs(3)));
            assert!(!r.deadlocked(), "{bench:?} deadlocked");
            assert_eq!(sim.stats().panics, 0, "{bench:?} panicked");
            assert_eq!(
                sim.stats().forks as usize,
                sim.thread_count(),
                "GVX forked beyond its eternal population"
            );
        }
    }

    #[test]
    fn modeled_sites_cover_the_population() {
        let mut sim = pcr::Sim::new(SimConfig::default().with_seed(1));
        install(&mut sim, crate::spec::Benchmark::Idle);
        let sites: Vec<String> = modeled_sites().into_iter().map(|(n, _)| n).collect();
        for t in sim.threads_iter() {
            assert!(
                sites.contains(&t.name),
                "thread '{}' missing from modeled_sites()",
                t.name
            );
        }
    }
}
