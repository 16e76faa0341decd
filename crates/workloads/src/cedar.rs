//! The synthetic Cedar world.
//!
//! Reproduces the thread population and activity structure the paper
//! reports for Cedar (§3): about 35 eternal threads; an interrupt-level
//! input thread feeding a preprocessing pump and the Notifier; an
//! X-output pipeline with a slack-process buffer thread
//! (`YieldButNotToMe`, §5.2); per-module library monitors that give the
//! system its high monitor-entry rates and large distinct-monitor counts;
//! an idle-time forker (idle Cedar forks a transient ~every 2 seconds,
//! which forks another — generations never exceed 2); a garbage-collection
//! daemon whose finalization forks are the only forks during `make` and
//! `compile`; and the eight benchmark drivers of Tables 1–3.
//!
//! Priorities follow §3: long-lived threads spread evenly over 1–4,
//! level 5 unused, level 6 for the Notifier/GC/SystemDaemon, level 7 for
//! interrupt-level input.

use pcr::{micros, millis, secs, Monitor, Priority, Sim, SimDuration};

use crate::spec::Benchmark;
use crate::world::{next_gap, InputEvent, LibraryPool, SleeperBus, SleeperSpec};
use paradigms::pump::BoundedQueue;
use paradigms::slack::{merge_by_key, spawn_slack, SlackPolicy};

/// Paint request: (screen region, sequence number). The slack buffer
/// merges requests to the same region, later data replacing earlier.
type PaintReq = (u32, u32);

/// Queue CV timeout: queue consumers are sleepers too — their waits time
/// out at this interval when the system is quiet.
const QUEUE_TIMEOUT: SimDuration = millis(500);

/// Modeled sites with their paradigm tags: the names this world forks,
/// joined both ways against its threads by `tests/invariants.rs`.
pub fn modeled_sites() -> Vec<(String, paradigms::Paradigm)> {
    use paradigms::Paradigm as P;
    let mut v: Vec<(String, P)> = sleeper_specs()
        .iter()
        .map(|s| (s.name.to_string(), P::Sleeper))
        .collect();
    let fixed: [(&str, P); 22] = [
        ("Cedar.ActivityDistributor", P::Sleeper),
        ("Cedar.InputDevice", P::GeneralPump),
        ("Cedar.InputPreprocess", P::GeneralPump),
        ("Cedar.Notifier", P::Serializer),
        ("Cedar.XBufferSlack", P::SlackProcess),
        ("Cedar.XServerWriter", P::GeneralPump),
        ("Cedar.RepaintWindow", P::Sleeper),
        ("Cedar.KeystrokeActionFork", P::DeferWork),
        ("Cedar.ScrollHelperFork", P::DeadlockAvoider),
        ("Cedar.ScrollLeafFork", P::DeferWork),
        ("Cedar.IdleForker", P::Sleeper),
        ("Cedar.IdleSweepFork", P::DeferWork),
        ("Cedar.IdleSweepLeafFork", P::DeferWork),
        ("Cedar.GcDaemon", P::Sleeper),
        ("Cedar.FinalizationFork", P::DeadlockAvoider),
        ("Cedar.FormatterWorker", P::DeferWork),
        ("Cedar.FormatHelperFork", P::DeferWork),
        ("Cedar.FormatLeafFork", P::DeferWork),
        ("Cedar.PreviewerWorker", P::DeferWork),
        ("Cedar.PreviewBandFork", P::DeferWork),
        ("Cedar.MakeWorker", P::DeferWork),
        ("Cedar.CompileWorker", P::DeferWork),
    ];
    v.extend(fixed.iter().map(|(n, p)| (n.to_string(), *p)));
    v
}

/// The 24 bus sleepers: blinkers and UI watchers at 100 ms; cache
/// sweepers at 250 ms (these cover wide library ranges, giving idle
/// Cedar its ~550 distinct monitors); watchdogs at 1 s; background
/// daemons at 2 s. Priorities spread over 1–4 with two daemons at 6.
fn sleeper_specs() -> Vec<SleeperSpec> {
    let p = Priority::of;
    let mut v = Vec::new();
    let fast = [
        ("Cedar.CursorBlinker", 4),
        ("Cedar.CaretBlinker", 4),
        ("Cedar.SelectionWatcher", 3),
        ("Cedar.TypescriptFlusher", 3),
        ("Cedar.ViewerHeartbeat", 4),
        ("Cedar.ChatPoller", 3),
    ];
    for (name, prio) in fast {
        v.push(SleeperSpec {
            name,
            priority: p(prio),
            period: millis(85),
            wake_work: micros(150),
            touches: 1,
        });
    }
    let sweepers = [
        ("Cedar.FontCacheSweeper", 2),
        ("Cedar.NameCacheSweeper", 2),
        ("Cedar.BitmapCacheSweeper", 2),
        ("Cedar.SymbolCacheSweeper", 1),
        ("Cedar.FileBufferFlusher", 3),
        ("Cedar.DisplayRefresher", 4),
    ];
    for (name, prio) in sweepers {
        v.push(SleeperSpec {
            name,
            priority: p(prio),
            period: millis(230),
            wake_work: micros(400),
            touches: 3,
        });
    }
    let watchers = [
        ("Cedar.NetWatcher", 4),
        ("Cedar.FsWatcher", 4),
        ("Cedar.MailChecker", 3),
        ("Cedar.GcHintTaker", 3),
        ("Cedar.PageCleaner", 1),
        ("Cedar.SwapPoller", 1),
        ("Cedar.VersionWatcher", 2),
        ("Cedar.DebuggerListener", 6),
    ];
    for (name, prio) in watchers {
        v.push(SleeperSpec {
            name,
            priority: p(prio),
            period: millis(930),
            wake_work: micros(300),
            touches: 2,
        });
    }
    let slow = [
        ("Cedar.CheckpointDaemon", 2),
        ("Cedar.JournalDaemon", 2),
        ("Cedar.AtomGcDaemon", 1),
        ("Cedar.RemoteCachePinger", 3),
    ];
    for (name, prio) in slow {
        v.push(SleeperSpec {
            name,
            priority: p(prio),
            period: millis(1930),
            wake_work: micros(300),
            touches: 2,
        });
    }
    v
}

/// Library-pool layout: disjoint ranges per activity (Cedar's monitors
/// are fine-grained and mostly uncontended — §3 reports 0.01–0.1 %
/// contention).
pub(crate) mod lib_map {
    /// Idle sweeps: 6 fast + 6 sweepers + 8 watchers + 4 slow.
    pub const SLEEPER_BASE: usize = 0;
    pub const SLEEPER_SPANS: [usize; 24] = [
        3, 3, 3, 3, 3, 3, // fast blinkers: small ranges
        90, 90, 90, 90, 30, 30, // cache sweepers: wide ranges
        8, 8, 8, 8, 8, 8, 8, 8, // watchers
        10, 10, 10, 10, // slow daemons
    ];
    /// Keystroke actions walk this range (drives keyboard's ~900
    /// distinct monitors).
    pub const KEYBOARD: (usize, usize) = (560, 360);
    /// Mouse motion handling.
    pub const MOUSE: (usize, usize) = (920, 180);
    /// Window repaint (scrolling).
    pub const DISPLAY: (usize, usize) = (1100, 240);
    /// Document formatter structures.
    pub const FORMAT: (usize, usize) = (1340, 480);
    /// Previewer structures.
    pub const PREVIEW: (usize, usize) = (1820, 380);
    /// Modules scanned by make.
    pub const MAKE: (usize, usize) = (2200, 750);
    /// Modules compiled by the compiler (drives compile's ~2900 distinct).
    pub const COMPILE: (usize, usize) = (0, 2800);
    /// Compiler-internal hot structures.
    pub const COMPILER_HOT: (usize, usize) = (2950, 40);
    /// Total pool size.
    pub const POOL: usize = 3000;
}

struct Pipeline {
    raw_q: BoundedQueue<InputEvent>,
    cooked_q: BoundedQueue<InputEvent>,
    paint_q: BoundedQueue<PaintReq>,
    batch_q: BoundedQueue<Vec<PaintReq>>,
}

fn build_pipeline(sim: &mut Sim) -> Pipeline {
    Pipeline {
        raw_q: BoundedQueue::new_in_sim(sim, "raw-input", 64, Some(QUEUE_TIMEOUT)),
        cooked_q: BoundedQueue::new_in_sim(sim, "cooked-input", 64, Some(QUEUE_TIMEOUT)),
        paint_q: BoundedQueue::new_in_sim(sim, "paint-requests", 128, Some(QUEUE_TIMEOUT)),
        batch_q: BoundedQueue::new_in_sim(sim, "x-batches", 32, Some(QUEUE_TIMEOUT)),
    }
}

/// Installs the Cedar world configured for `bench` into `sim`.
pub fn install(sim: &mut Sim, bench: Benchmark) {
    let lib = LibraryPool::new(sim, lib_map::POOL);
    let specs = sleeper_specs();
    let starts: Vec<usize> = {
        let mut acc = lib_map::SLEEPER_BASE;
        lib_map::SLEEPER_SPANS
            .iter()
            .map(|s| {
                let here = acc;
                acc += s;
                here
            })
            .collect()
    };
    let bus = SleeperBus::install(sim, &specs, &lib, &starts, &lib_map::SLEEPER_SPANS);
    let busy = sim.monitor("system-busy", false);
    let last_activity = sim.monitor("last-activity", pcr::SimTime::ZERO);
    let pipe = build_pipeline(sim);

    install_device(sim, bench, pipe.raw_q.clone());
    install_preprocess(sim, pipe.raw_q.clone(), pipe.cooked_q.clone());
    let damage = install_repaint_threads(sim, &lib, pipe.paint_q.clone());
    install_notifier(sim, bench, &lib, &bus, &pipe, damage, last_activity.clone());
    install_x_output(sim, &pipe);
    install_idle_forker(sim, &lib, busy.clone(), last_activity);
    install_gc(sim, &lib, busy.clone());
    install_worker(sim, bench, &lib, busy, &pipe, &bus);

    // Even an idle Cedar has some NOTIFY traffic among its eternal
    // threads (Table 2: only 82% of idle waits time out): a distributor
    // pings two sleepers per cycle.
    let bus2 = bus;
    let _ = sim.fork_root("Cedar.ActivityDistributor", Priority::of(4), move |ctx| {
        let mut i = 0u64;
        loop {
            ctx.sleep(millis(85));
            i += 1;
            bus2.ping(ctx, i * 3, 2);
        }
    });
}

/// Interrupt-level device thread (priority 7): sleeps precisely until
/// each event arrives (hardware interrupts are not quantized by PCR's
/// timer) and pushes it onto the raw queue.
fn install_device(sim: &mut Sim, bench: Benchmark, raw_q: BoundedQueue<InputEvent>) {
    let (kind, rate): (fn(u32) -> InputEvent, f64) = match bench {
        Benchmark::Keyboard => (InputEvent::Key, 4.8),
        Benchmark::Mouse => (InputEvent::Motion, 15.0),
        Benchmark::Scroll => (InputEvent::Click, 1.0),
        _ => (InputEvent::Key, 0.0),
    };
    let _ = sim.fork_root("Cedar.InputDevice", Priority::of(7), move |ctx| {
        let mut rng = ctx.rng();
        if rate <= 0.0 {
            loop {
                ctx.sleep_precise(secs(3600));
            }
        }
        let mut i = 0u32;
        loop {
            ctx.sleep_precise(next_gap(&mut rng, rate));
            ctx.work(micros(30)); // Interrupt service.
            raw_q.put(ctx, kind(i));
            i += 1;
        }
    });
}

/// The input-preprocessing pump (§4.2: "all user input is filtered
/// through a pipeline thread that preprocesses events").
fn install_preprocess(
    sim: &mut Sim,
    raw_q: BoundedQueue<InputEvent>,
    cooked_q: BoundedQueue<InputEvent>,
) {
    let _ = sim.fork_root("Cedar.InputPreprocess", Priority::of(6), move |ctx| {
        while let Some(ev) = raw_q.take(ctx) {
            ctx.work(micros(120));
            cooked_q.put(ctx, ev);
        }
    });
}

/// Per-window repaint threads: sleepers on a damage CV; a scroll makes
/// one of them walk the display structures and emit paint requests.
fn install_repaint_threads(
    sim: &mut Sim,
    lib: &LibraryPool,
    paint_q: BoundedQueue<PaintReq>,
) -> Vec<(Monitor<u32>, pcr::Condition)> {
    let mut handles = Vec::new();
    for w in 0..4u32 {
        let m = sim.monitor(&format!("window-{w}.damage"), 0u32);
        let cv = sim.condition(&m, &format!("window-{w}.damaged"), Some(secs(1)));
        handles.push((m.clone(), cv.clone()));
        let (d0, d1) = lib_map::DISPLAY;
        let mut cursor = lib.cursor(d0, d1);
        let paint_q = paint_q.clone();
        let _ = sim.fork_root("Cedar.RepaintWindow", Priority::of(4), move |ctx| {
            let mut seq = 0u32;
            loop {
                let pending = {
                    let mut g = ctx.enter(&m);
                    g.wait_until(&cv, |&p| p > 0);
                    g.with_mut(std::mem::take)
                };
                for _ in 0..pending {
                    // Scrolling a text window re-renders heavily: the
                    // paper's scroll benchmark enters ~2000 monitors/sec.
                    ctx.work(millis(4));
                    cursor.touch_n(ctx, 1100, micros(8));
                    for r in 0..20 {
                        seq += 1;
                        paint_q.put(ctx, (w * 32 + (r % 8), seq));
                    }
                }
            }
        });
    }
    handles
}

/// The Notifier (§4.1): the critical keyboard-and-mouse watching thread.
/// It notices what work needs doing and forks almost everything else.
fn install_notifier(
    sim: &mut Sim,
    bench: Benchmark,
    lib: &LibraryPool,
    bus: &SleeperBus,
    pipe: &Pipeline,
    damage: Vec<(Monitor<u32>, pcr::Condition)>,
    last_activity: Monitor<pcr::SimTime>,
) {
    let cooked_q = pipe.cooked_q.clone();
    let paint_q = pipe.paint_q.clone();
    let bus = bus.clone();
    let (k0, k1) = lib_map::KEYBOARD;
    let (m0, m1) = lib_map::MOUSE;
    let mut kb_cursor = lib.cursor(k0, k1);
    let mut mouse_cursor = lib.cursor(m0, m1);
    let lib = lib.clone();
    let _ = sim.fork_root("Cedar.Notifier", Priority::of(6), move |ctx| {
        let mut rng = ctx.rng();
        let mut seq = 0u32;
        while let Some(ev) = cooked_q.take(ctx) {
            match ev {
                InputEvent::Key(i) => {
                    // Notice, echo, and defer the real work (§4.1): "the
                    // command-shell thread ... forks a transient thread
                    // for every keystroke".
                    ctx.work(micros(300));
                    kb_cursor.touch_n(ctx, 8, micros(10));
                    seq += 1;
                    paint_q.put(ctx, (1, seq)); // Echo glyph.
                    bus.ping(ctx, i as u64, 6);
                    {
                        let mut g = ctx.enter(&last_activity);
                        let now = ctx.now();
                        g.with_mut(|t| *t = now);
                    }
                    let mut action_cursor = lib.cursor(k0 + (i as usize * 95) % (k1 - 100), 100);
                    let action_bus = bus.clone();
                    let _ = ctx.fork_detached_prio(
                        "Cedar.KeystrokeActionFork",
                        Priority::of(4),
                        move |ctx| {
                            ctx.work(millis(1));
                            action_cursor.touch_n(ctx, 190, micros(6));
                            action_bus.ping(ctx, i as u64 * 13, 4);
                            ctx.work(millis(1));
                            action_cursor.touch_n(ctx, 190, micros(6));
                            action_bus.ping(ctx, i as u64 * 29, 4);
                        },
                    );
                }
                InputEvent::Motion(i) => {
                    // Mouse motion forks nothing but drives eternal
                    // threads (§3).
                    ctx.work(micros(120));
                    mouse_cursor.touch_n(ctx, 30, micros(8));
                    if i % 4 == 0 {
                        seq += 1;
                        paint_q.put(ctx, (2, seq));
                    }
                    bus.ping(ctx, i as u64, 1);
                }
                InputEvent::Click(i) => {
                    // A scroll click: damage one window; occasionally
                    // fork helpers (3 transients per 10 scrolls, one a
                    // child of another — §3).
                    ctx.work(micros(500));
                    {
                        let mut g = ctx.enter(&last_activity);
                        let now = ctx.now();
                        g.with_mut(|t| *t = now);
                    }
                    let (m, cv) = &damage[(i % 4) as usize];
                    {
                        let mut g = ctx.enter(m);
                        g.with_mut(|p| *p += 1);
                        g.notify(cv);
                    }
                    bus.ping(ctx, i as u64, 2);
                    if rng.next_f64() < 0.2 {
                        let fork_leaf = rng.next_f64() < 0.5;
                        let _ = ctx.fork_detached_prio(
                            "Cedar.ScrollHelperFork",
                            Priority::of(4),
                            move |ctx| {
                                ctx.work(millis(10));
                                if fork_leaf {
                                    let _ = ctx.fork_detached("Cedar.ScrollLeafFork", |ctx| {
                                        ctx.work(millis(5))
                                    });
                                }
                            },
                        );
                    }
                    let _ = bench; // Benchmark is implicit in event mix.
                }
            }
        }
    });
}

/// The X output pipeline: the slack-process buffer thread (§5.2, high
/// priority, `YieldButNotToMe`) merging paint requests, and the server
/// writer with high per-batch costs.
fn install_x_output(sim: &mut Sim, pipe: &Pipeline) {
    let paint_q = pipe.paint_q.clone();
    let batch_q = pipe.batch_q.clone();
    let server_q = pipe.batch_q.clone();
    let _ = sim.fork_root("Cedar.XServerWriter", Priority::of(6), move |ctx| {
        let _slack = spawn_slack(
            ctx,
            "Cedar.XBufferSlack",
            Priority::of(6),
            paint_q,
            SlackPolicy::YieldButNotToMe,
            micros(300),
            merge_by_key(|r: &PaintReq| r.0),
            move |ctx, batch| {
                if !batch.is_empty() {
                    batch_q.put(ctx, batch);
                }
            },
        );
        // This driver thread doubles as the X server writer.
        while let Some(batch) = server_q.take(ctx) {
            ctx.work(millis(1) + micros(100) * batch.len() as u64);
        }
    });
}

/// Idle-time forker: "an idle Cedar system ... forks a transient thread
/// once a second on average. Each forked thread, in turn, forks another
/// transient thread." Suppressed while a compute benchmark runs (§3:
/// compute-intensive applications *decrease* forking).
fn install_idle_forker(
    sim: &mut Sim,
    lib: &LibraryPool,
    busy: Monitor<bool>,
    last_activity: Monitor<pcr::SimTime>,
) {
    let mut sweep_cursor = lib.cursor(0, 200);
    let _ = sim.fork_root("Cedar.IdleForker", Priority::of(2), move |ctx| loop {
        ctx.sleep_precise(millis(2200));
        let is_busy = {
            let g = ctx.enter(&busy);
            g.with(|b| *b)
        };
        // Idle-time work runs only when the user is quiet and no compute
        // job is saturating the system.
        let recent_input = {
            let g = ctx.enter(&last_activity);
            let now = ctx.now();
            g.with(|&t| now.saturating_since(t) < millis(2600) && t > pcr::SimTime::ZERO)
        };
        if is_busy || recent_input {
            continue;
        }
        sweep_cursor.touch_n(ctx, 2, micros(10));
        let _ = ctx.fork_detached_prio("Cedar.IdleSweepFork", Priority::of(2), |ctx| {
            ctx.work(millis(4));
            let _ = ctx.fork_detached("Cedar.IdleSweepLeafFork", |ctx| {
                ctx.work(millis(2));
            });
        });
    });
}

/// The GC daemon (priority 6, like the SystemDaemon — §3): wakes
/// periodically; under compute load it forks finalization callbacks
/// (§4.4: "the finalization service thread forks each callback").
fn install_gc(sim: &mut Sim, lib: &LibraryPool, busy: Monitor<bool>) {
    let mut gc_cursor = lib.cursor(2200, 100);
    let _ = sim.fork_root("Cedar.GcDaemon", Priority::of(6), move |ctx| {
        let mut rng = ctx.rng();
        loop {
            ctx.sleep(millis(1430));
            ctx.work(millis(1));
            gc_cursor.touch_n(ctx, 4, micros(10));
            let is_busy = {
                let g = ctx.enter(&busy);
                g.with(|b| *b)
            };
            if is_busy && rng.next_f64() < 0.45 {
                let _ = ctx.fork_detached_prio("Cedar.FinalizationFork", Priority::of(3), |ctx| {
                    ctx.work(millis(5));
                });
            }
        }
    });
}

/// The benchmark worker: formatting, previewing, make, or compile.
fn install_worker(
    sim: &mut Sim,
    bench: Benchmark,
    lib: &LibraryPool,
    busy: Monitor<bool>,
    pipe: &Pipeline,
    bus: &SleeperBus,
) {
    match bench {
        Benchmark::Format => {
            let (f0, f1) = lib_map::FORMAT;
            let mut cursor = lib.cursor(f0, f1);
            let lib = lib.clone();
            let bus = bus.clone();
            let _ = sim.fork_root("Cedar.FormatterWorker", Priority::of(2), move |ctx| {
                let mut rng = ctx.rng();
                let mut last_fork = pcr::SimTime::ZERO;
                loop {
                    // One formatting element: compute + document monitors.
                    ctx.work(millis(3));
                    cursor.touch_n(ctx, 8, micros(10));
                    // ~2.7 transient forks/sec (paced by wall-clock, as
                    // formatting progress was), each forking one child
                    // (generations ≤ 2, §3).
                    if ctx.now().saturating_since(last_fork) >= millis(740) {
                        last_fork = ctx.now();
                        bus.ping(ctx, last_fork.as_micros(), 4);
                        let off = (rng.next_below(400)) as usize;
                        let mut helper_cursor = lib.cursor(f0 + off.min(f1 - 64), 64);
                        let _ = ctx.fork_detached_prio(
                            "Cedar.FormatHelperFork",
                            Priority::of(4),
                            move |ctx| {
                                ctx.work(millis(20));
                                helper_cursor.touch_n(ctx, 60, micros(8));
                                let _ = ctx.fork_detached("Cedar.FormatLeafFork", |ctx| {
                                    ctx.work(millis(8));
                                });
                            },
                        );
                    }
                }
            });
        }
        Benchmark::Preview => {
            let (p0, p1) = lib_map::PREVIEW;
            let mut cursor = lib.cursor(p0, p1);
            let paint_q = pipe.paint_q.clone();
            let _ = sim.fork_root("Cedar.PreviewerWorker", Priority::of(2), move |ctx| {
                let mut band = 0u32;
                let mut last_fork = pcr::SimTime::ZERO;
                loop {
                    // Decode one band and paint it.
                    ctx.work(millis(34));
                    cursor.touch_n(ctx, 35, micros(10));
                    band += 1;
                    paint_q.put(ctx, (8 + band % 4, band));
                    // ~0.7 run-to-completion transients/sec.
                    if ctx.now().saturating_since(last_fork) >= millis(1430) {
                        last_fork = ctx.now();
                        let _ = ctx.fork_detached_prio(
                            "Cedar.PreviewBandFork",
                            Priority::of(4),
                            |ctx| ctx.work(millis(20)),
                        );
                    }
                }
            });
        }
        Benchmark::Make => {
            let (m0, m1) = lib_map::MAKE;
            let mut cursor = lib.cursor(m0, m1);
            let _ = sim.fork_root("Cedar.MakeWorker", Priority::of(2), move |ctx| {
                {
                    let mut g = ctx.enter(&busy);
                    g.with_mut(|b| *b = true);
                }
                // The command-shell thread is the worker (§3): scan
                // modules checking build state; no forks of its own.
                loop {
                    ctx.work(millis(10));
                    cursor.touch_n(ctx, 21, micros(8));
                }
            });
        }
        Benchmark::Compile => {
            let (c0, c1) = lib_map::COMPILE;
            let (h0, h1) = lib_map::COMPILER_HOT;
            let mut modules = lib.cursor(c0, c1);
            let mut hot = lib.cursor(h0, h1);
            let _ = sim.fork_root("Cedar.CompileWorker", Priority::of(2), move |ctx| {
                {
                    let mut g = ctx.enter(&busy);
                    g.with_mut(|b| *b = true);
                }
                loop {
                    // Compile one module: long compute runs produce the
                    // 45–50ms execution intervals of §3.
                    ctx.work(millis(8));
                    modules.touch_n(ctx, 1, micros(15));
                    hot.touch_n(ctx, 7, micros(5));
                }
            });
        }
        Benchmark::Idle | Benchmark::Keyboard | Benchmark::Mouse | Benchmark::Scroll => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{RunLimit, SimConfig};

    #[test]
    fn sleeper_specs_are_well_formed() {
        let specs = sleeper_specs();
        assert_eq!(specs.len(), lib_map::SLEEPER_SPANS.len());
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate sleeper names");
        // Priorities spread over 1..=4 plus the level-6 daemons, never 5
        // or 7 (§3's Cedar profile).
        for s in &specs {
            let p = s.priority.get();
            assert!(p != 5 && p != 7, "{} at priority {p}", s.name);
        }
        let sleeper_range: usize = lib_map::SLEEPER_SPANS.iter().sum();
        assert!(sleeper_range < lib_map::POOL);
    }

    #[test]
    fn lib_map_ranges_fit_the_pool() {
        for (start, span) in [
            lib_map::KEYBOARD,
            lib_map::MOUSE,
            lib_map::DISPLAY,
            lib_map::FORMAT,
            lib_map::PREVIEW,
            lib_map::MAKE,
            lib_map::COMPILE,
            lib_map::COMPILER_HOT,
        ] {
            assert!(start + span <= lib_map::POOL, "({start},{span}) overflows");
            assert!(span > 0);
        }
    }

    #[test]
    fn every_benchmark_installs_without_panicking_threads() {
        for bench in crate::spec::Benchmark::CEDAR {
            let mut sim = pcr::Sim::new(SimConfig::default().with_seed(1));
            install(&mut sim, bench);
            let r = sim.run(RunLimit::For(pcr::secs(3)));
            assert!(!r.deadlocked(), "{bench:?} deadlocked");
            assert_eq!(sim.stats().panics, 0, "{bench:?} panicked");
        }
    }

    #[test]
    fn modeled_sites_are_unique() {
        let sites = modeled_sites();
        let mut names: Vec<&String> = sites.iter().map(|(n, _)| n).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
