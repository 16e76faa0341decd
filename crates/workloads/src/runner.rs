//! Running a benchmark and harvesting the paper's measurements.

use std::sync::OnceLock;

use crate::spec::System;
use pcr::{
    millis, secs, AllocCounters, ChaosConfig, HazardConfig, HazardCounts, Priority, RunLimit,
    SchedLatency, Sim, SimConfig, SimDuration, SimStats, SystemDaemonConfig,
};
use trace::{BenchmarkRates, Collector, IntervalHistogram, MonitorProfileRow};

use crate::spec::Benchmark;

/// Everything measured from one benchmark run.
#[derive(Debug)]
pub struct BenchResult {
    /// Which system ran.
    pub system: System,
    /// Which benchmark ran.
    pub benchmark: Benchmark,
    /// The Tables 1–3 rates.
    pub rates: BenchmarkRates,
    /// Execution-interval histogram (§3's bimodal distribution).
    pub intervals: IntervalHistogram,
    /// Maximum fork generation observed (§3: never exceeds 2).
    pub max_generation: u32,
    /// Thread count per generation.
    pub generation_counts: Vec<usize>,
    /// High-water mark of concurrently live threads (paper: ≤ 41).
    pub max_live_threads: usize,
    /// Virtual CPU consumed at each priority level (index 0 = priority 1).
    pub cpu_by_priority: [SimDuration; 7],
    /// Mean lifetime of threads that exited (§3: "well under 1 second").
    pub mean_transient_lifetime: Option<SimDuration>,
    /// Hazards the [`pcr::HazardMonitor`] reported over the whole run
    /// (warm-up included). All-zero when hazard detection was off, as it
    /// is for [`run_benchmark`].
    pub hazards: HazardCounts,
    /// Primitive events executed inside the measurement window (the delta
    /// of [`pcr::SimStats::event_volume`] across it). Deterministic for a
    /// given `(system, benchmark, window, seed)`, so the perf harness can
    /// divide it by wall-clock time to report simulated events/sec.
    pub event_volume: u64,
    /// §6.1's spurious lock conflicts inside the measurement window: a
    /// woken thread dispatched onto a monitor that is still held (E6).
    pub spurious_conflicts: u64,
    /// Wakeup-to-run scheduler latency per priority over the measurement
    /// window (§6.2/§6.3), including the log₂-µs histogram.
    pub sched_latency: SchedLatency,
    /// Per-monitor contention profile over the measurement window
    /// (§6.1), hottest monitor first.
    pub contention: Vec<MonitorProfileRow>,
    /// Allocation/reuse deltas for the sim's pooled resources (timer
    /// slab, coroutine-stack pool) over the measurement
    /// window. At steady state the `*_allocs` components should be near
    /// zero: the warm-up populates the pools and the window reuses them.
    pub alloc: AllocCounters,
}

/// Default virtual measurement window.
pub const DEFAULT_WINDOW: SimDuration = secs(30);

/// Virtual warm-up before every measurement window: queues and sleepers
/// reach steady state, and none of it counts toward the rates.
pub const WARMUP: SimDuration = secs(2);

/// Builds the world for `(system, benchmark)` in a fresh simulator.
pub fn build(system: System, benchmark: Benchmark, seed: u64) -> Sim {
    build_chaos_with(system, benchmark, seed, ChaosConfig::none(), |cfg| cfg)
}

/// The fault mix used for chaos-mode benchmark runs: spurious CV
/// wakeups, duplicated notifies, and timer jitter (§5.3's hazards plus
/// widened timeout races). Dropped notifies and fork failures are
/// deliberately excluded — the worlds' eternal threads assume forks
/// succeed and notifies arrive, so those faults would wedge the world
/// rather than stress its Mesa discipline.
pub fn chaos_preset() -> ChaosConfig {
    ChaosConfig::none()
        .spurious_wakeups(0.05)
        .duplicate_notifies(0.05)
        .jitter_timers(millis(5))
}

/// Builds the world for `(system, benchmark)` with fault injection per
/// `chaos`, hazard detection enabled whenever injection is active, and
/// `tweak` adjusting the assembled [`SimConfig`] before the world is
/// installed — the hook that picks the scheduling policy, or caps the
/// thread table for the resilience harness, without duplicating the
/// per-system daemon tuning here.
pub fn build_chaos_with(
    system: System,
    benchmark: Benchmark,
    seed: u64,
    chaos: ChaosConfig,
    tweak: impl FnOnce(SimConfig) -> SimConfig,
) -> Sim {
    // The SystemDaemon's pace is tuned per system so its wakeups sit
    // inside each system's measured switch budget.
    let daemon = match system {
        System::Cedar => SystemDaemonConfig {
            period: pcr::millis(100),
            slice: pcr::millis(5),
        },
        System::Gvx => SystemDaemonConfig {
            period: pcr::millis(500),
            slice: pcr::millis(5),
        },
    };
    let mut cfg = SimConfig::default()
        .with_seed(seed)
        .with_system_daemon(daemon);
    if chaos.is_active() {
        cfg = cfg
            .with_chaos(chaos)
            .with_hazard_detection(HazardConfig::default());
    }
    let mut sim = Sim::new(tweak(cfg));
    match system {
        System::Cedar => crate::cedar::install(&mut sim, benchmark),
        System::Gvx => crate::gvx::install(&mut sim, benchmark),
    }
    sim
}

/// Runs one benchmark for `window` of virtual time (after the
/// [`WARMUP`], which is excluded from the rates) and returns the
/// measurements.
///
/// # Panics
///
/// Panics if the world deadlocks or its threads panic.
pub fn run_benchmark(
    system: System,
    benchmark: Benchmark,
    window: SimDuration,
    seed: u64,
) -> BenchResult {
    run_benchmark_chaos(system, benchmark, window, seed, ChaosConfig::none())
}

/// Like [`run_benchmark`], but dispatching with `policy` instead of the
/// default round-robin.
///
/// # Panics
///
/// Panics if the world deadlocks under the chosen policy or its threads
/// panic.
pub fn run_benchmark_policy(
    system: System,
    benchmark: Benchmark,
    window: SimDuration,
    seed: u64,
    policy: pcr::PolicyKind,
) -> BenchResult {
    let run = run_benchmark_with(
        system,
        benchmark,
        window,
        seed,
        ChaosConfig::none(),
        |cfg| cfg.with_policy(policy),
    );
    run.unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`run_benchmark`], but with fault injection per `chaos` and the
/// [`pcr::HazardMonitor`] watching the whole run; the tallies land in
/// [`BenchResult::hazards`].
///
/// # Panics
///
/// Panics if the world deadlocks — which an aggressive `chaos` (dropped
/// notifies, fork failures) can legitimately cause; [`chaos_preset`]
/// stays within what the worlds tolerate — or its threads panic.
pub fn run_benchmark_chaos(
    system: System,
    benchmark: Benchmark,
    window: SimDuration,
    seed: u64,
    chaos: ChaosConfig,
) -> BenchResult {
    let run = run_benchmark_with(system, benchmark, window, seed, chaos, |cfg| cfg);
    run.unwrap_or_else(|e| panic!("{e}"))
}

/// The benchmark runner: builds the world with fault injection per
/// `chaos` and an arbitrary [`SimConfig`] `tweak` (scheduling policy,
/// thread caps, …), runs the [`WARMUP`], snapshots the counters,
/// installs a [`Collector`], runs `window` and [`harvest`]s it. Every
/// other runner, and every command that measures a matrix cell, comes
/// through here.
///
/// # Errors
///
/// A world that deadlocks (naming the phase: warm-up or measurement),
/// or whose threads panicked (naming them), is an `Err` describing it,
/// so a driver over many cells can report a failed one and go on.
pub fn run_benchmark_with(
    system: System,
    benchmark: Benchmark,
    window: SimDuration,
    seed: u64,
    chaos: ChaosConfig,
    tweak: impl FnOnce(SimConfig) -> SimConfig,
) -> Result<BenchResult, String> {
    let mut sim = build_chaos_with(system, benchmark, seed, chaos, tweak);
    let warmup = sim.run(RunLimit::For(WARMUP));
    if warmup.deadlocked() {
        return Err(format!(
            "world deadlocked during warm-up: {:?}",
            warmup.reason
        ));
    }
    let start_stats = sim.stats().clone();
    let start_alloc = sim.alloc_counters();
    sim.set_sink(Box::new(Collector::for_sim(&sim)));
    let report = sim.run(RunLimit::For(window));
    if report.deadlocked() {
        return Err(format!(
            "world deadlocked during measurement: {:?}",
            report.reason
        ));
    }
    if sim.stats().panics > 0 {
        let names: Vec<&str> = sim
            .threads_iter()
            .filter(|t| t.panicked)
            .map(|t| t.name.as_str())
            .collect();
        return Err(format!(
            "world threads panicked — the model is crippled: {}",
            names.join(", ")
        ));
    }
    Ok(harvest(
        &mut sim,
        system,
        benchmark,
        &start_stats,
        start_alloc,
        report.elapsed,
        report.hazards,
    ))
}

/// Assembles a [`BenchResult`] from a simulator whose measurement window
/// just finished: takes the installed [`Collector`] out of `sim` and
/// computes every rate as the delta from `start_stats` over `elapsed`.
/// Shared by [`run_benchmark_with`] and the resilience supervisor
/// (which measures the final attempt of a supervised run this way).
pub fn harvest(
    sim: &mut Sim,
    system: System,
    benchmark: Benchmark,
    start_stats: &SimStats,
    start_alloc: AllocCounters,
    elapsed: SimDuration,
    hazards: HazardCounts,
) -> BenchResult {
    let end_stats = sim.stats().clone();
    let collector = trace::take_collector::<Collector>(sim).expect("collector present");
    let label = benchmark.label(system);
    let rates = BenchmarkRates::from_window(&label, start_stats, &end_stats, elapsed);
    let mut cpu_by_priority = end_stats.cpu_by_priority;
    for (i, c) in cpu_by_priority.iter_mut().enumerate() {
        *c = c.saturating_sub(start_stats.cpu_by_priority[i]);
    }
    BenchResult {
        system,
        benchmark,
        rates,
        intervals: collector.intervals.into_histogram(),
        max_generation: collector.genealogy.max_generation(),
        generation_counts: collector.genealogy.generation_counts(),
        max_live_threads: end_stats.max_live_threads,
        cpu_by_priority,
        mean_transient_lifetime: collector.genealogy.mean_lifetime_of_exited(),
        hazards,
        event_volume: end_stats.event_volume() - start_stats.event_volume(),
        spurious_conflicts: end_stats.spurious_conflicts - start_stats.spurious_conflicts,
        sched_latency: end_stats
            .sched_latency
            .window_since(&start_stats.sched_latency),
        contention: collector.contention.rows(),
        alloc: sim.alloc_counters().since(start_alloc),
    }
}

/// Convenience: a quick probe run for tests (shorter window).
pub fn probe(system: System, benchmark: Benchmark) -> BenchResult {
    run_benchmark(system, benchmark, secs(10), 0xC0FFEE)
}

/// The eternal threads of `system`'s installed world before any run: a
/// property of the world's definition, so one Idle world per system is
/// built and counted the first time it is asked for, and never again in
/// this process (the fuzzer asks once per Cedar cell per sweep).
pub fn eternal_thread_count(system: System) -> usize {
    static CEDAR: OnceLock<usize> = OnceLock::new();
    static GVX: OnceLock<usize> = OnceLock::new();
    let count = match system {
        System::Cedar => &CEDAR,
        System::Gvx => &GVX,
    };
    *count.get_or_init(|| build(system, Benchmark::Idle, 1).live_threads())
}

/// A tiny self-check world used by unit tests: two threads exchanging
/// notifies. Returns its switch count over one virtual second.
pub fn smoke() -> u64 {
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.monitor("m", 0u32);
    let cv = sim.condition(&m, "cv", Some(pcr::millis(50)));
    let (m2, cv2) = (m.clone(), cv.clone());
    let _ = sim.fork_root("a", Priority::of(4), move |ctx| loop {
        let mut g = ctx.enter(&m2);
        g.with_mut(|v| *v += 1);
        g.notify(&cv2);
        let _ = g.wait(&cv2);
    });
    let _ = sim.fork_root("b", Priority::of(4), move |ctx| loop {
        let mut g = ctx.enter(&m);
        g.with_mut(|v| *v += 1);
        g.notify(&cv);
        let _ = g.wait(&cv);
    });
    sim.run(RunLimit::For(secs(1)));
    sim.stats().switches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_world_switches() {
        assert!(smoke() > 10);
    }

    #[test]
    fn cedar_idle_probe_shape() {
        let r = probe(System::Cedar, Benchmark::Idle);
        // Eternal threads only: low fork rate from the idle forker.
        assert!(
            r.rates.forks_per_sec > 0.2 && r.rates.forks_per_sec < 3.0,
            "idle forks/sec = {}",
            r.rates.forks_per_sec
        );
        assert!(
            r.rates.switches_per_sec > 50.0 && r.rates.switches_per_sec < 500.0,
            "idle switches/sec = {}",
            r.rates.switches_per_sec
        );
        assert!(
            r.rates.timeout_pct > 60.0,
            "idle timeouts = {}%",
            r.rates.timeout_pct
        );
        assert!(r.max_generation <= 2);
        assert!(r.max_live_threads <= 41, "live = {}", r.max_live_threads);
    }

    #[test]
    fn gvx_never_forks() {
        for b in [
            Benchmark::Idle,
            Benchmark::Keyboard,
            Benchmark::Mouse,
            Benchmark::Scroll,
        ] {
            let r = probe(System::Gvx, b);
            assert_eq!(r.rates.forks_per_sec, 0.0, "GVX {b} forked");
        }
    }

    #[test]
    fn chaos_preset_runs_and_is_deterministic() {
        let run = || {
            run_benchmark_chaos(
                System::Cedar,
                Benchmark::Keyboard,
                secs(5),
                0xC0FFEE,
                chaos_preset(),
            )
        };
        let a = run();
        let b = run();
        // Injection actually happened and the detectors were live.
        assert!(
            a.rates.waits_per_sec > 0.0,
            "keyboard world stopped waiting under chaos"
        );
        assert_eq!(a.hazards, b.hazards, "hazard tallies diverged");
        assert_eq!(
            a.rates.switches_per_sec, b.rates.switches_per_sec,
            "same seed + same chaos must replay identically"
        );
        assert_eq!(a.max_live_threads, b.max_live_threads);
    }

    #[test]
    fn a_crippled_world_is_an_error_naming_its_panicked_threads() {
        // Every fork fails: the Cedar typing world's X writer panics on
        // a failed fork and the rest of the world runs on without it.
        let chaos = ChaosConfig::none().fail_forks(1.0);
        let cell = (System::Cedar, Benchmark::Keyboard, secs(5), 0xC0FFEE);
        let (system, benchmark, window, seed) = cell;
        let err = run_benchmark_with(system, benchmark, window, seed, chaos.clone(), |c| c)
            .expect_err("a world with panicked threads must not be measured");
        let crippled = "world threads panicked — the model is crippled";
        assert_eq!(err, format!("{crippled}: Cedar.XServerWriter"));
        // The panicking runners keep their message.
        let panic = std::panic::catch_unwind(|| {
            run_benchmark_chaos(system, benchmark, window, seed, chaos)
        })
        .expect_err("run_benchmark_chaos must panic");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.starts_with(crippled), "{msg}");
    }

    #[test]
    fn the_timer_slab_is_as_small_as_the_live_threads() {
        // Some forty threads, each with one sleep or one CV timeout
        // pending and no more: a NOTIFYed wait's timeout leaves the wheel
        // with the wait, so the slab's high-water mark is the threads and
        // not the waits of the last timeout interval.
        let mut sim = build(System::Cedar, Benchmark::Keyboard, 0xCEDA_2026);
        sim.run(RunLimit::For(secs(2 + 8)));
        let alloc = sim.alloc_counters();
        assert!(alloc.timer_node_allocs < 50, "{alloc:?}");
        // As many timers armed as ever: the benchmark's `timer_ops`.
        assert_eq!(
            alloc.timer_node_allocs + alloc.timer_node_reuses,
            2_046,
            "{alloc:?}"
        );
    }

    #[test]
    fn clean_runs_report_no_hazards() {
        let r = probe(System::Gvx, Benchmark::Idle);
        assert_eq!(r.hazards, pcr::HazardCounts::default());
    }

    #[test]
    fn eternal_populations_are_paper_sized() {
        let cedar = eternal_thread_count(System::Cedar);
        let gvx = eternal_thread_count(System::Gvx);
        assert!((30..=41).contains(&cedar), "cedar eternal = {cedar}");
        assert!((20..=26).contains(&gvx), "gvx eternal = {gvx}");
        // The remembered count is still what a fresh world has, whatever
        // its seed.
        for (system, count) in [(System::Cedar, cedar), (System::Gvx, gvx)] {
            let fresh = build(system, Benchmark::Idle, 0xFEED);
            assert_eq!(fresh.live_threads(), count, "{system:?}");
            assert_eq!(eternal_thread_count(system), count);
        }
    }
}
