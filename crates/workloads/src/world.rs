//! Shared building blocks for the synthetic Cedar and GVX worlds.
//!
//! Both worlds are populated with *eternal* threads (sleepers, pumps,
//! serializers with little to do — §3's characterization) plus the
//! benchmark-specific workers. The blocks here give the worlds their
//! measurable texture:
//!
//! * a [`LibraryPool`] of per-module monitors — the paper attributes the
//!   high monitor-entry rates and the 500–3000 distinct monitors per
//!   benchmark to "reusable library packages" protecting their data, so
//!   every activity walks monitors from an assigned range of the pool;
//! * [`SleeperBus`] — each eternal sleeper waits on its own CV with a
//!   timeout (the `PeriodicalProcess` idiom), so an idle system's waits
//!   are mostly timeouts (Table 2: 82 % idle) while interactive traffic
//!   NOTIFYs sleepers and drives the timeout fraction down;
//! * [`InputEvent`] — the keyboard/mouse/scroll event vocabulary.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Arc;

use pcr::{micros, Condition, Monitor, Priority, Sim, SimDuration, ThreadCtx};

/// One user-input event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputEvent {
    /// A keystroke.
    Key(u32),
    /// Mouse motion.
    Motion(u32),
    /// A mouse click (scrolling uses clicks).
    Click(u32),
}

thread_local! {
    /// `module-{i}` at index `i`, grown on demand: every world built on
    /// this OS thread shares these names rather than formatting its own.
    /// Per thread, so worlds on different OS threads never contend for a
    /// name's reference count.
    static MODULE_NAMES: RefCell<Vec<Arc<str>>> = const { RefCell::new(Vec::new()) };
}

/// A pool of monitors standing in for library-module monitor locks.
#[derive(Clone)]
pub struct LibraryPool {
    monitors: Arc<Vec<Monitor<u64>>>,
}

impl LibraryPool {
    /// Creates `size` module monitors, `module-0` onwards, before the run:
    /// one batch, named from this OS thread's shared table.
    pub fn new(sim: &mut Sim, size: usize) -> Self {
        let monitors = MODULE_NAMES.with_borrow_mut(|names| {
            while names.len() < size {
                names.push(format!("module-{}", names.len()).into());
            }
            sim.monitors(&names[..size], |_| 0u64)
        });
        LibraryPool {
            monitors: Arc::new(monitors),
        }
    }

    /// Number of module monitors.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// A cursor walking the subrange `start..start+span` round-robin.
    pub fn cursor(&self, start: usize, span: usize) -> LibCursor {
        assert!(span > 0, "cursor span must be positive");
        assert!(
            start + span <= self.monitors.len(),
            "cursor range out of pool bounds"
        );
        LibCursor {
            pool: self.monitors.clone(),
            start,
            span,
            next: 0,
        }
    }
}

/// A round-robin walker over a [`LibraryPool`] subrange.
pub struct LibCursor {
    pool: Arc<Vec<Monitor<u64>>>,
    start: usize,
    span: usize,
    next: usize,
}

impl LibCursor {
    /// Enters the next module monitor in the range, does `hold` of work
    /// inside, and exits.
    pub fn touch(&mut self, ctx: &ThreadCtx, hold: SimDuration) {
        let m = &self.pool[self.start + self.next];
        // Wrapped by a compare, not a division: this runs per touch.
        self.next += 1;
        if self.next == self.span {
            self.next = 0;
        }
        let mut g = ctx.enter(m);
        if !hold.is_zero() {
            ctx.work(hold);
        }
        g.with_mut(|v| *v += 1);
        drop(g);
    }

    /// Touches `n` consecutive module monitors.
    pub fn touch_n(&mut self, ctx: &ThreadCtx, n: usize, hold: SimDuration) {
        for _ in 0..n {
            self.touch(ctx, hold);
        }
    }
}

/// State behind each eternal sleeper's monitor.
#[derive(Default)]
pub struct SleeperSlot {
    /// Pings delivered by interactive traffic.
    pub pings: u64,
}

/// The per-sleeper monitors and CVs that interactive traffic can NOTIFY.
#[derive(Clone)]
pub struct SleeperBus {
    slots: Arc<Vec<(Monitor<SleeperSlot>, Condition)>>,
}

/// Specification for one eternal sleeper.
pub struct SleeperSpec {
    /// Thread name (also used as its inventory site name).
    pub name: &'static str,
    /// Priority.
    pub priority: Priority,
    /// CV timeout: the sleeper's period when nothing pings it.
    pub period: SimDuration,
    /// CPU per wakeup.
    pub wake_work: SimDuration,
    /// Library monitors touched per wakeup.
    pub touches: usize,
}

impl SleeperBus {
    /// Creates the bus and spawns one eternal sleeper per spec. Each
    /// sleeper `i` walks the library from `lib_starts[i]` over
    /// `lib_spans[i]` modules.
    pub fn install(
        sim: &mut Sim,
        specs: &[SleeperSpec],
        lib: &LibraryPool,
        lib_starts: &[usize],
        lib_spans: &[usize],
    ) -> SleeperBus {
        assert_eq!(specs.len(), lib_starts.len());
        assert_eq!(specs.len(), lib_spans.len());
        let mut slots = Vec::new();
        let mut name = String::new();
        for (i, spec) in specs.iter().enumerate() {
            name.clear();
            let _ = write!(name, "{}.state", spec.name);
            let m = sim.monitor(&name, SleeperSlot::default());
            name.clear();
            let _ = write!(name, "{}.tick", spec.name);
            let cv = sim.condition(&m, &name, Some(spec.period));
            slots.push((m.clone(), cv.clone()));
            let mut cursor = lib.cursor(lib_starts[i], lib_spans[i]);
            let (wake_work, touches) = (spec.wake_work, spec.touches);
            let _ = sim.fork_root(spec.name, spec.priority, move |ctx| loop {
                {
                    let mut g = ctx.enter(&m);
                    let _ = g.wait(&cv);
                    g.with_mut(|s| s.pings = 0);
                }
                ctx.work(wake_work);
                cursor.touch_n(ctx, touches, micros(20));
            });
        }
        SleeperBus {
            slots: Arc::new(slots),
        }
    }

    /// Number of sleepers on the bus.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no sleepers are installed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Pings `count` sleepers starting at a position derived from `salt`
    /// — the "keyboard activity and mouse motion cause significant
    /// increases in activity by eternal threads" coupling.
    pub fn ping(&self, ctx: &ThreadCtx, salt: u64, count: usize) {
        if self.slots.is_empty() {
            return;
        }
        for k in 0..count {
            let idx = ((salt as usize).wrapping_add(k * 7)) % self.slots.len();
            let (m, cv) = &self.slots[idx];
            let mut g = ctx.enter(m);
            g.with_mut(|s| s.pings += 1);
            g.notify(cv);
        }
    }
}

/// Poisson-process interarrival helper: samples the next gap for a mean
/// rate of `per_sec` events per second, clamped to ≥ 100 µs. The single
/// implementation lives in `serverd::traffic` so the desktop worlds and
/// the serve world draw identical gap streams from identical seeds.
pub fn next_gap(rng: &mut pcr::SplitMix64, per_sec: f64) -> SimDuration {
    serverd::traffic::poisson_gap(rng, per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, RunLimit, SimConfig};

    #[test]
    fn library_cursor_walks_its_range() {
        let mut sim = Sim::new(SimConfig::default());
        let lib = LibraryPool::new(&mut sim, 50);
        let mut cur = lib.cursor(10, 5);
        let _ = sim.fork_root("t", Priority::DEFAULT, move |ctx| {
            cur.touch_n(ctx, 12, micros(1));
        });
        sim.run(RunLimit::ToCompletion);
        // 12 touches over a span of 5 distinct monitors.
        assert_eq!(sim.stats().ml_enters, 12);
        assert_eq!(sim.stats().distinct_monitors, 5);
    }

    #[test]
    #[should_panic(expected = "out of pool bounds")]
    fn cursor_bounds_checked() {
        let mut sim = Sim::new(SimConfig::default());
        let lib = LibraryPool::new(&mut sim, 10);
        let _ = lib.cursor(8, 5);
    }

    #[test]
    fn sleepers_timeout_when_idle_and_wake_on_ping() {
        let mut sim = Sim::new(SimConfig::default());
        let lib = LibraryPool::new(&mut sim, 100);
        let specs = [
            SleeperSpec {
                name: "s0",
                priority: Priority::of(3),
                period: millis(100),
                wake_work: micros(200),
                touches: 2,
            },
            SleeperSpec {
                name: "s1",
                priority: Priority::of(3),
                period: millis(200),
                wake_work: micros(200),
                touches: 2,
            },
        ];
        let bus = SleeperBus::install(&mut sim, &specs, &lib, &[0, 50], &[10, 10]);
        assert_eq!(bus.len(), 2);
        // Idle phase: all waits time out.
        sim.run(RunLimit::For(secs(2)));
        let idle_waits = sim.stats().cv_waits;
        let idle_touts = sim.stats().cv_timeouts;
        assert!(idle_waits >= 20, "waits {idle_waits}");
        assert!(
            idle_touts as f64 / idle_waits as f64 > 0.9,
            "idle should be timeout-driven"
        );
        // Now ping continuously from a high-priority source.
        let _ = sim.fork_root("pinger", Priority::of(6), move |ctx| {
            for i in 0..100u64 {
                ctx.sleep_precise(millis(10));
                bus.ping(ctx, i, 2);
            }
        });
        let before = sim.stats().clone();
        sim.run(RunLimit::For(secs(1)));
        let after = sim.stats();
        let waits = after.cv_waits - before.cv_waits;
        let touts = after.cv_timeouts - before.cv_timeouts;
        assert!(waits > 50, "pinged waits {waits}");
        assert!(
            (touts as f64 / waits as f64) < 0.5,
            "pings should dominate timeouts: {touts}/{waits}"
        );
    }

    /// Worlds built on one OS thread name their library monitors from one
    /// table: the `module-{i}` names of two Cedar worlds and a GVX world
    /// are the same allocations, and the pool is still each world's first
    /// monitors, `module-{i}` at id `i`.
    #[test]
    fn worlds_on_one_thread_share_their_module_names() {
        use crate::{runner::build, Benchmark, System};
        let keyboard = build(System::Cedar, Benchmark::Keyboard, 1).monitor_names();
        let idle = build(System::Cedar, Benchmark::Idle, 2).monitor_names();
        let gvx = build(System::Gvx, Benchmark::Scroll, 3).monitor_names();
        let (cedar_pool, gvx_pool) = (crate::cedar::lib_map::POOL, crate::gvx::lib_map::POOL);
        for (i, name) in keyboard.iter().enumerate().take(cedar_pool) {
            assert_eq!(**name, *format!("module-{i}"));
            assert!(Arc::ptr_eq(name, &idle[i]), "{name}");
            if i < gvx_pool {
                assert!(Arc::ptr_eq(name, &gvx[i]), "{name}");
            }
        }
        for names in [
            &keyboard[cedar_pool..],
            &idle[cedar_pool..],
            &gvx[gvx_pool..],
        ] {
            assert!(names.iter().all(|n| !n.starts_with("module-")));
        }
    }

    #[test]
    fn next_gap_mean_tracks_rate() {
        let mut rng = pcr::SplitMix64::new(42);
        let n = 5000;
        let total: u64 = (0..n).map(|_| next_gap(&mut rng, 10.0).as_micros()).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 100_000.0).abs() < 10_000.0, "mean {mean}");
    }
}
