//! The §5/§6 experiments, each returning a report section.

use std::fmt::Write as _;

use paradigms::exploit::parallel_map;
use pcr::{
    micros, millis, secs, ChaosConfig, ForkError, ForkPolicy, NotifyMode, Priority, RunLimit, Sim,
    SimConfig, SimDuration, StopReason, ThreadCtx,
};
use trace::{f1, Table};
use workloads::{run_benchmark_with, BenchResult, Benchmark, System};

use crate::executor::run_indexed;
use crate::tables;

/// E5 (§5.2): plain YIELD vs `YieldButNotToMe` in the slack pipeline.
pub fn slack_report() -> String {
    let (plain, fixed) = crate::slackbench::yield_comparison();
    let mut out = String::new();
    let _ = writeln!(out, "E5 (§5.2) — slack process feeding the X server");
    let _ = writeln!(
        out,
        "  policy             batches  merge-ratio  switches  completion"
    );
    for o in [&plain, &fixed] {
        let _ = writeln!(
            out,
            "  {:18} {:7} {:12.1} {:9} {:>11}",
            format!("{:?}", o.policy),
            o.server_batches,
            o.merge_ratio,
            o.switches,
            o.completion.to_string()
        );
    }
    let speedup = plain.completion.as_micros() as f64 / fixed.completion.as_micros().max(1) as f64;
    let _ = writeln!(
        out,
        "  => YieldButNotToMe completes the paint job {speedup:.1}x faster (paper: ~3x)"
    );
    out
}

/// E8 (§6.3): quantum sweep.
pub fn quantum_report() -> String {
    let sweep = crate::slackbench::quantum_sweep();
    let mut out = String::new();
    let _ = writeln!(out, "E8 (§6.3) — effect of the time-slice quantum");
    let _ = writeln!(
        out,
        "  quantum  policy                 merge-ratio  mean-staleness  max-staleness"
    );
    for o in &sweep {
        let _ = writeln!(
            out,
            "  {:>7}  {:22} {:10.1}  {:>14}  {:>13}",
            o.quantum.to_string(),
            format!("{:?}", o.policy),
            o.merge_ratio,
            o.mean_latency.to_string(),
            o.max_latency.to_string()
        );
    }
    let _ = writeln!(
        out,
        "  => 1s quantum: second-scale bursts; 1ms: merging collapses; timeout-based"
    );
    let _ = writeln!(
        out,
        "     buffering becomes viable once the granularity (== quantum) shrinks to 20ms"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  ablation: 50ms quantum with a decoupled timer granularity (SleepTimeout 5ms)"
    );
    for (g, o) in crate::slackbench::granularity_ablation() {
        let _ = writeln!(
            out,
            "    granularity {:>5}  merge-ratio {:6.1}  mean-staleness {:>9}",
            g.to_string(),
            o.merge_ratio,
            o.mean_latency.to_string()
        );
    }
    let _ = writeln!(
        out,
        "  => the tick, not the quantum per se, is what limits the timeout-based buffer"
    );
    out
}

/// E6's window and seed: the matrix's default seed, and a window long
/// enough that every Cedar cell wastes a dispatch under
/// [`NotifyMode::Immediate`].
const E6_WINDOW: SimDuration = secs(10);
const E6_SEED: u64 = 0xCEDA_2026;

/// The two §6.1 NOTIFY modes, in E6's column order.
const NOTIFY_MODES: [NotifyMode; 2] = [NotifyMode::Immediate, NotifyMode::DeferredReschedule];

/// Every matrix cell under each of [`NOTIFY_MODES`], measured through
/// the one cell runner: `(cell, one result per mode)`, in matrix order.
///
/// # Panics
///
/// Panics if a cell deadlocks or its threads panic.
fn spurious_runs() -> Vec<((System, Benchmark), Vec<BenchResult>)> {
    let cells = tables::matrix();
    let n = NOTIFY_MODES.len();
    let (runs, _) = run_indexed(tables::workers_available(), cells.len() * n, |i| {
        let ((system, benchmark), mode) = (cells[i / n], NOTIFY_MODES[i % n]);
        let chaos = ChaosConfig::none();
        let run = run_benchmark_with(system, benchmark, E6_WINDOW, E6_SEED, chaos, |c| {
            c.with_notify_mode(mode)
        });
        run.unwrap_or_else(|e| panic!("{}/{benchmark:?} under {mode:?}: {e}", system.name()))
    });
    let mut runs = runs.into_iter();
    let per_cell = |cell| (cell, runs.by_ref().take(n).collect());
    cells.into_iter().map(per_cell).collect()
}

/// E6 (§6.1): spurious lock conflicts in the Cedar and GVX worlds, under
/// the NOTIFY that reschedules at once and under the deferred reschedule.
pub fn spurious_report() -> String {
    let runs = spurious_runs();
    let mut t = Table::new(
        &format!("E6 (§6.1) — spurious lock conflicts in the twelve cells ({E6_WINDOW} window)"),
        &[
            "Cell",
            "Immediate: spurious",
            "switches/s",
            "DeferredReschedule: spurious",
            "switches/s",
        ],
    );
    let mut wasting = [0usize; 2];
    for ((system, benchmark), results) in &runs {
        let mut row = vec![format!("{}/{benchmark:?}", system.name())];
        for (r, wasting) in results.iter().zip(&mut wasting) {
            *wasting += usize::from(r.spurious_conflicts > 0);
            row.extend([
                r.spurious_conflicts.to_string(),
                f1(r.rates.switches_per_sec),
            ]);
        }
        t.row(row);
    }
    let mut out = t.to_text();
    let _ = writeln!(
        out,
        "  => cells that waste dispatches: {} of {} under Immediate, {} under DeferredReschedule;",
        wasting[0],
        runs.len(),
        wasting[1]
    );
    let _ = writeln!(
        out,
        "     deferring the reschedule until monitor exit removes every wasted trip"
    );
    out
}

/// E7 (§6.2): priority inversion and its workarounds.
pub fn inversion_report() -> String {
    let fmt_lat = |l: Option<SimDuration>| match l {
        Some(d) => d.to_string(),
        None => "STALLED (>20s)".to_string(),
    };
    let mut out = String::new();
    let _ = writeln!(out, "E7 (§6.2) — stable priority inversion");
    let plain = crate::inversion::monitor_inversion(false);
    let rescued = crate::inversion::monitor_inversion(true);
    let _ = writeln!(
        out,
        "  monitor inversion, no daemon:     high-prio acquire {}",
        fmt_lat(plain.acquire_latency)
    );
    let _ = writeln!(
        out,
        "  monitor inversion, SystemDaemon:  high-prio acquire {} ({} donations)",
        fmt_lat(rescued.acquire_latency),
        rescued.donations
    );
    for (donation, daemon) in [(true, false), (false, false), (true, true), (false, true)] {
        let o = crate::inversion::metalock_inversion(donation, daemon);
        let _ = writeln!(
            out,
            "  metalock: donation={:5} daemon={:5}  acquire {:>14}  stalls {}",
            donation,
            daemon,
            fmt_lat(o.acquire_latency),
            o.metalock_stalls
        );
    }
    let _ = writeln!(
        out,
        "  => strict priority starves; donation fixes only the metalock; the daemon's"
    );
    let _ = writeln!(
        out,
        "     random slices are what actually bound the inversion"
    );
    out
}

/// E12 (§5.6): threaded Xlib vs X1.
pub fn xlib_report() -> String {
    let (xlib, x1) = crate::xlib::compare();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E12 (§5.6) — threaded Xlib vs X1 connection management"
    );
    let _ = writeln!(
        out,
        "  model           events  flushes  flushes/event  inversion-window  hi-prio entry"
    );
    for (name, o) in [("modified Xlib", &xlib), ("X1", &x1)] {
        let _ = writeln!(
            out,
            "  {:14} {:6} {:8} {:14.2}  {:>16}  {:>13}",
            name,
            o.events_delivered,
            o.flushes,
            o.flushes_per_event,
            o.inversion_window.to_string(),
            o.highprio_entry_latency.to_string()
        );
    }
    let _ = writeln!(
        out,
        "  => the reading thread removes the flush coupling and the held-mutex window"
    );
    out
}

/// E9 (§5.3): common mistakes — IF-wait and timeout-masked notifies.
pub fn mistakes_report() -> String {
    use paradigms::mistakes::LossyNotifyQueue;
    let mut out = String::new();
    let _ = writeln!(out, "E9 (§5.3) — common mistakes");
    // Timeout-masked missing notifies: measure per-item latency.
    let run = |drop_every: u64| -> (SimDuration, u64) {
        let mut sim = Sim::new(SimConfig::default());
        let h = sim.fork_root("driver", Priority::of(4), move |ctx| {
            let q: LossyNotifyQueue<pcr::SimTime> =
                LossyNotifyQueue::new(ctx, "lossy", drop_every, Some(millis(50)));
            let qc = q.clone();
            let consumer = ctx
                .fork_prio("consumer", Priority::of(5), move |ctx| {
                    let mut timeouts = 0;
                    let mut latency = SimDuration::ZERO;
                    for _ in 0..50 {
                        let (put_at, t) = qc.take(ctx);
                        latency += ctx.now().saturating_since(put_at);
                        timeouts += t;
                    }
                    (latency / 50, timeouts)
                })
                .unwrap();
            for _ in 0..50 {
                ctx.sleep_precise(millis(60));
                q.put(ctx, ctx.now());
            }
            ctx.join(consumer).unwrap()
        });
        sim.run(RunLimit::For(secs(30)));
        h.into_result().unwrap().unwrap()
    };
    let (healthy, _) = run(0);
    let (buggy, touts) = run(1);
    let _ = writeln!(
        out,
        "  healthy NOTIFY path:        mean item latency {healthy}"
    );
    let _ = writeln!(
        out,
        "  all NOTIFYs missing (bug):  mean item latency {buggy}, {touts} timeout wakeups"
    );
    let _ = writeln!(
        out,
        "  => the system still \"works\" — timeout driven, correct but slow"
    );
    out
}

/// E10 (§5.4): fork-failure policies at the thread limit.
pub fn forkfail_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E10 (§5.4) — when a fork fails (thread limit = 8)");
    // Error policy: count failures the forker must handle.
    let run = |policy: ForkPolicy| -> (u64, u64, SimDuration) {
        let mut sim = Sim::new(
            SimConfig::default()
                .with_max_threads(8)
                .with_fork_policy(policy),
        );
        let h = sim.fork_root("spawner", Priority::of(4), move |ctx| {
            let mut failures = 0u64;
            let mut stall = SimDuration::ZERO;
            for i in 0..40 {
                let t0 = ctx.now();
                match ctx.fork(&format!("job{i}"), |ctx| ctx.work(millis(20))) {
                    Ok(handle) => {
                        stall += ctx.now().since(t0);
                        ctx.detach(handle);
                    }
                    Err(ForkError::ResourcesExhausted) => {
                        failures += 1;
                        // "nobody really knows what to do about it":
                        // back off and retry later.
                        ctx.sleep(millis(50));
                    }
                }
            }
            (failures, stall)
        });
        let r = sim.run(RunLimit::For(secs(30)));
        let (failures, stall) = h.into_result().unwrap().unwrap();
        let _ = r;
        (failures, sim.stats().fork_blocks, stall)
    };
    let (failures, _, _) = run(ForkPolicy::Error);
    let (_, blocks, stall) = run(ForkPolicy::WaitForResources);
    let _ = writeln!(
        out,
        "  Error policy:            {failures} fork failures surfaced to recovery code"
    );
    let _ = writeln!(
        out,
        "  WaitForResources policy: {blocks} silent blocks inside FORK, {stall} total unexplained delay"
    );
    let _ = writeln!(
        out,
        "  => errors demand recovery nobody knows how to write; waiting hides the"
    );
    let _ = writeln!(out, "     problem as unexplained unresponsiveness");
    out
}

/// E11 (§5.5): weak memory ordering.
pub fn weakmem_report() -> String {
    use pcr::weakmem::WeakMem;
    let mut out = String::new();
    let _ = writeln!(out, "E11 (§5.5) — weakly ordered memory");
    let run = |fenced: bool| -> u64 {
        let mut sim = Sim::new(SimConfig::default().with_seed(99));
        let mem = WeakMem::new(1234, millis(5));
        let (wm, rm) = (mem.clone(), mem);
        let _ = sim.fork_root("writer", Priority::of(4), move |ctx| {
            for round in 0..50u64 {
                let base = round * 4;
                for f in 1..=3 {
                    wm.store(ctx, (base + f) as usize, 42);
                }
                if fenced {
                    wm.fence(ctx);
                }
                wm.store(ctx, base as usize, 1); // Publish.
                if fenced {
                    wm.fence(ctx);
                }
                for _ in 0..40 {
                    ctx.work(micros(50));
                    ctx.yield_now();
                }
            }
        });
        let h = sim.fork_root("reader", Priority::of(4), move |ctx| {
            let mut torn = 0u64;
            for round in 0..50u64 {
                let base = round * 4;
                for _ in 0..60 {
                    ctx.work(micros(40));
                    ctx.yield_now();
                    if rm.load(ctx, base as usize) == 1 {
                        for f in 1..=3 {
                            if rm.load(ctx, (base + f) as usize) != 42 {
                                torn += 1;
                            }
                        }
                        break;
                    }
                }
            }
            torn
        });
        sim.run(RunLimit::For(secs(60)));
        h.into_result().unwrap().unwrap()
    };
    let torn = run(false);
    let fenced = run(true);
    let _ = writeln!(
        out,
        "  pointer published without barrier: {torn} torn field reads over 50 rounds"
    );
    let _ = writeln!(out, "  with a store barrier before publishing: {fenced}");
    let _ = writeln!(
        out,
        "  => code correct under strong ordering silently breaks on weak machines"
    );
    out
}

/// One point of E13's speedup curve.
#[derive(Clone, Copy, Debug)]
struct SpeedupPoint {
    /// Virtual processors used.
    cpus: usize,
    /// Virtual makespan of the whole job.
    makespan: SimDuration,
    /// Speedup relative to one processor.
    speedup: f64,
    /// Cross-CPU monitor contention.
    contended: u64,
}

/// Maps 16 tasks through [`paradigms::exploit::parallel_map`] on `cpus`
/// processors, each `free` of independent work and then `serialized`
/// inside one shared monitor (never entered if that is zero). Returns
/// the virtual makespan and the contended entries.
fn fan_out(cpus: usize, free: SimDuration, serialized: SimDuration) -> (SimDuration, u64) {
    let mut sim = Sim::with_cpus(SimConfig::default().with_seed(3), cpus);
    let shared = sim.monitor("shared-structure", 0u64);
    let h = sim.fork_root("driver", Priority::of(5), move |ctx| {
        let t0 = ctx.now();
        let tasks = (0..16).collect();
        parallel_map(ctx, "w", tasks, free, move |ctx: &ThreadCtx, _: u32| {
            if !serialized.is_zero() {
                let mut g = ctx.enter(&shared);
                ctx.work(serialized);
                g.with_mut(|v| *v += 1);
            }
        });
        ctx.now().since(t0)
    });
    let r = sim.run(RunLimit::For(secs(600)));
    assert_eq!(r.reason, StopReason::AllExited, "fork/join did not finish");
    (h.into_result().unwrap().unwrap(), sim.stats().ml_contended)
}

/// E13's two task shapes, `(free, serialized)`: 25 ms of independent
/// work, and 7 of 25 ms inside one shared monitor, which serializes that
/// fraction and caps the speedup (Amdahl, observed rather than stated).
const INDEPENDENT: (SimDuration, SimDuration) = (millis(25), SimDuration::ZERO);
const CONTENDED: (SimDuration, SimDuration) = (millis(18), millis(7));

/// E13's curve across 1, 2, 4 and 8 processors.
fn speedup_curve((free, serialized): (SimDuration, SimDuration)) -> Vec<SpeedupPoint> {
    let mut one_cpu = None;
    let point = |cpus| {
        let (makespan, contended) = fan_out(cpus, free, serialized);
        let base = *one_cpu.get_or_insert(makespan);
        let speedup = base.as_micros() as f64 / makespan.as_micros().max(1) as f64;
        SpeedupPoint {
            cpus,
            makespan,
            speedup,
            contended,
        }
    };
    [1, 2, 4, 8].into_iter().map(point).collect()
}

/// E13 (§4.7): concurrency exploiters on the multiprocessor scheduler,
/// through the unchanged paradigm library.
pub fn exploiters_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E13 (§4.7) — concurrency exploiters on 1/2/4/8 virtual processors"
    );
    let free = speedup_curve(INDEPENDENT);
    let contended = speedup_curve(CONTENDED);
    let _ = writeln!(
        out,
        "  cpus  independent: makespan  speedup | shared-monitor: makespan  speedup  contended"
    );
    for (f, c) in free.iter().zip(&contended) {
        let _ = writeln!(
            out,
            "  {:>4}  {:>21}  {:>7.2} | {:>23}  {:>7.2}  {:>9}",
            f.cpus,
            f.makespan.to_string(),
            f.speedup,
            c.makespan.to_string(),
            c.speedup,
            c.contended
        );
    }
    let _ = writeln!(
        out,
        "  => independent fan-out scales; a shared monitor's serialized fraction caps"
    );
    let _ = writeln!(
        out,
        "     the curve — the guidance the paper's §7 says interactive systems lacked"
    );
    out
}

/// E17: retry-storm amplification under an X-server outage, with and
/// without the client retry budget. Same outage cell, one knob flipped;
/// the budget must keep the offered-work amplification factor bounded
/// while the unbudgeted fleet amplifies the outage into extra load.
pub fn retrystorm_report() -> String {
    let run = |budget: bool| {
        let mut spec = serverd::ServeSpec::scenario(serverd::ServeScenario::Outage, 1200, 0xA5);
        spec.window = secs(8);
        spec.outage = vec![(secs(2), millis(900)), (secs(5), millis(900))];
        spec.retry.budget_enabled = budget;
        serverd::run_serve(spec)
    };
    let with_budget = run(true);
    let without = run(false);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E17 (docs/SERVING.md) — retry-storm amplification across an X-server outage"
    );
    let _ = writeln!(
        out,
        "  retry budget   offered  painted  retries  suppressed  amplification  breaker trips"
    );
    for (label, o, suppressed) in [
        ("with budget", &with_budget, with_budget.budget_suppressed),
        ("no budget", &without, without.budget_suppressed),
    ] {
        let _ = writeln!(
            out,
            "  {:12} {:>9} {:>8} {:>8} {:>11} {:>14.3} {:>14}",
            label,
            o.counters.offered,
            o.counters.painted,
            o.counters.retries,
            suppressed,
            o.counters.amplification(),
            o.breaker_trips,
        );
    }
    let _ = writeln!(
        out,
        "  => the budget suppresses {} retries and holds amplification at {:.3}x",
        with_budget.budget_suppressed,
        with_budget.counters.amplification()
    );
    let _ = writeln!(
        out,
        "     (unbudgeted: {:.3}x) — an outage must not be amplified into a storm",
        without.counters.amplification()
    );
    out
}

/// Runs one experiment and renders its report.
type Report = fn() -> String;

/// Every experiment as `(name, DESIGN.md number, report)`, in order.
const EXPERIMENTS: [(&str, &str, Report); 10] = [
    ("slack", "e5", slack_report),
    ("spurious", "e6", spurious_report),
    ("inversion", "e7", inversion_report),
    ("quantum", "e8", quantum_report),
    ("mistakes", "e9", mistakes_report),
    ("forkfail", "e10", forkfail_report),
    ("weakmem", "e11", weakmem_report),
    ("xlib", "e12", xlib_report),
    ("exploiters", "e13", exploiters_report),
    ("retrystorm", "e17", retrystorm_report),
];

/// Looks up one experiment's report by its DESIGN.md name or number.
pub fn report_by_name(name: &str) -> Option<Report> {
    let found = EXPERIMENTS
        .iter()
        .find(|(n, e, _)| name == *n || name == *e);
    found.map(|(_, _, report)| *report)
}

/// Every experiment's report, in DESIGN.md's order.
pub fn all_reports() -> Vec<String> {
    EXPERIMENTS.iter().map(|(_, _, report)| report()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_notify_wastes_dispatches_in_every_cedar_cell_and_deferred_in_none() {
        for ((system, benchmark), results) in spurious_runs() {
            let [imm, def] = [0, 1].map(|mode| results[mode].spurious_conflicts);
            let cell = format!("{}/{benchmark:?}", system.name());
            let gvx = system == System::Gvx;
            assert!(gvx || imm > 0, "{cell}: no spurious conflict, Immediate");
            assert_eq!(def, 0, "{cell}: spurious conflicts, DeferredReschedule");
        }
    }

    #[test]
    fn independent_work_scales_nearly_linearly() {
        let curve = speedup_curve(INDEPENDENT);
        let at = |cpus: usize| curve.iter().find(|p| p.cpus == cpus).unwrap().speedup;
        assert!((at(1) - 1.0).abs() < 0.01);
        assert!(at(2) > 1.8, "2 cpus: {}", at(2));
        assert!(at(4) > 3.3, "4 cpus: {}", at(4));
        assert!(at(8) > 5.0, "8 cpus: {}", at(8));
    }

    #[test]
    fn serialized_fraction_caps_the_speedup() {
        // 7ms of every 25ms is serialized: 16 tasks need ≥ 112ms of
        // serialized time, so speedup can never exceed 400/112 ≈ 3.6.
        let curve = speedup_curve(CONTENDED);
        let at8 = curve.iter().find(|p| p.cpus == 8).unwrap();
        assert!(at8.speedup < 3.8, "8 cpus: {}", at8.speedup);
        assert!(at8.speedup > 2.0, "8 cpus: {}", at8.speedup);
        assert!(at8.contended > 0, "no cross-CPU contention observed");
        // And the independent curve beats it at every width > 1.
        let free = speedup_curve(INDEPENDENT);
        for (f, c) in free.iter().zip(&curve).skip(1) {
            assert!(
                f.speedup > c.speedup,
                "{} cpus: free {} vs contended {}",
                f.cpus,
                f.speedup,
                c.speedup
            );
        }
    }

    #[test]
    fn mistakes_report_shows_slowdown() {
        let r = mistakes_report();
        assert!(r.contains("timeout driven"));
    }

    #[test]
    fn forkfail_report_has_both_policies() {
        let r = forkfail_report();
        assert!(r.contains("Error policy"));
        assert!(r.contains("WaitForResources"));
    }

    #[test]
    fn weakmem_report_shows_fix() {
        let r = weakmem_report();
        assert!(r.contains("store barrier"));
    }

    #[test]
    fn retrystorm_report_contrasts_the_budget() {
        let r = retrystorm_report();
        assert!(r.contains("with budget"), "{r}");
        assert!(r.contains("no budget"), "{r}");
        assert!(r.contains("holds amplification"), "{r}");
        assert!(report_by_name("e17").is_some());
        assert!(report_by_name("retrystorm").is_some());
    }
}
