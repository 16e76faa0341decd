//! The deadlock-recovery supervisor.
//!
//! Runs a world in slices under a wait-for-graph watch and, when the
//! world wedges, climbs a recovery ladder drawn from the paper:
//!
//! 1. **Fail pending forks** (§5.4): if any wedged thread is parked in
//!    fork-wait, drain the fork queue with an error — the Cedar worlds
//!    handle `ResourcesExhausted` and carry on degraded.
//! 2. **§6.2 inversion remedies**: when the wait-for graph reports a
//!    high-priority thread stuck behind a *runnable* lower-priority
//!    holder, first enable metalock donation (the paper's fix for the
//!    metalock variant), then boost the holder to the victim's priority
//!    (what the paper's SystemDaemon achieves probabilistically, done
//!    deterministically here). Neither restarts anything.
//! 3. **Rejuvenate** (§5.2 "task rejuvenation"): if the wedge chain
//!    roots at a stalled (unresponsive) thread, un-stall it.
//! 4. **Restart**: tear the attempt down and rebuild the world, with
//!    exponential backoff deducted from the remaining time budget.
//!
//! [`supervise_benchmark`] wraps this around a benchmark cell and scores
//! the outcome as a *degradation* fraction: primitive-event volume
//! achieved across every attempt divided by a clean run's volume over
//! the same window.

use pcr::{
    millis, BlockKind, ChaosConfig, RunLimit, Sim, SimDuration, SimStats, SimTime, WaitForGraph,
    WaitingThread,
};
use trace::Collector;
use workloads::{harvest, BenchResult};

use crate::judge::{judge, Verdict};
use crate::observe::{TrialSpec, TrialWorld};

/// Supervisor parameters.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Total virtual-time budget across all attempts (backoff included).
    pub window: SimDuration,
    /// Slice length between wait-for-graph checks.
    pub slice: SimDuration,
    /// How long a thread must sit blocked before it counts as wedged.
    pub wedge_threshold: SimDuration,
    /// Maximum restarts before the supervisor gives up.
    pub max_restarts: u32,
    /// First restart backoff; doubles per restart.
    pub backoff: SimDuration,
    /// Slices to wait after a recovery action before judging again
    /// (waiters only unwedge once the recovered thread releases what it
    /// holds).
    pub grace_slices: u32,
}

impl SupervisorConfig {
    /// Defaults for a given total window.
    pub fn for_window(window: SimDuration) -> SupervisorConfig {
        SupervisorConfig {
            window,
            slice: millis(250),
            wedge_threshold: millis(1500),
            max_restarts: 3,
            backoff: millis(500),
            grace_slices: 2,
        }
    }
}

/// Which lever the supervisor pulled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryKind {
    /// Drained the fork-wait queue with errors (§5.4).
    FailPendingForks,
    /// Turned on metalock cycle donation to clear a metalock inversion
    /// (§6.2).
    EnableMetalockDonation,
    /// Boosted a runnable lower-priority holder to its victim's
    /// priority (§6.2's SystemDaemon effect, applied deterministically).
    PriorityBoost,
    /// Un-stalled an unresponsive thread (§5.2).
    Rejuvenate,
    /// Tore the attempt down and rebuilt the world.
    Restart,
}

impl RecoveryKind {
    /// Short lowercase tag for tables and JSON.
    pub fn tag(self) -> &'static str {
        match self {
            RecoveryKind::FailPendingForks => "fail-pending-forks",
            RecoveryKind::EnableMetalockDonation => "metalock-donation",
            RecoveryKind::PriorityBoost => "priority-boost",
            RecoveryKind::Rejuvenate => "rejuvenate",
            RecoveryKind::Restart => "restart",
        }
    }
}

/// One recovery action in the supervisor's log.
#[derive(Clone, Debug)]
pub struct RecoveryAction {
    /// Attempt number the action happened in (0-based).
    pub attempt: u32,
    /// Virtual time within that attempt.
    pub at: SimTime,
    /// Which lever.
    pub kind: RecoveryKind,
    /// Human-readable detail ("failed 1 pending fork(s)", thread names).
    pub detail: String,
}

/// The supervisor's summary of one supervised run.
#[derive(Debug)]
pub struct Supervision {
    /// Attempts made (1 = no restart was needed).
    pub attempts: u32,
    /// Every recovery action, in order.
    pub actions: Vec<RecoveryAction>,
    /// Restarts among the actions.
    pub restarts: u32,
    /// True when the restart budget ran out with the world still broken.
    pub gave_up: bool,
    /// Primitive-event volume summed over every attempt.
    pub total_volume: u64,
    /// Virtual time the final attempt ran.
    pub final_elapsed: SimDuration,
    /// True when the supervisor did not give up and [`judge`] finds the
    /// final attempt healthy after its last slice.
    pub healthy_at_end: bool,
}

/// Supervises `build(attempt)` under `cfg`, returning the summary and
/// the final attempt's simulator (for harvesting).
pub fn supervise(mut build: impl FnMut(u32) -> Sim, cfg: &SupervisorConfig) -> (Supervision, Sim) {
    let mut remaining = cfg.window;
    let mut attempt = 0u32;
    let mut actions: Vec<RecoveryAction> = Vec::new();
    let mut restarts = 0u32;
    let mut total_volume = 0u64;
    let mut gave_up = false;
    loop {
        let mut sim = build(attempt);
        let base_volume = sim.stats().event_volume();
        let mut grace = 0u32;
        let mut donation_enabled = false;
        let mut restart = false;
        let mut attempt_elapsed = SimDuration::ZERO;
        let mut last_report = None;
        while !remaining.is_zero() {
            let step = cfg.slice.min(remaining);
            let report = sim.run(RunLimit::For(step));
            attempt_elapsed += report.elapsed;
            remaining = remaining.saturating_sub(step);
            let verdict = judge(&sim, &report, Some(cfg.wedge_threshold));
            last_report = Some(report);
            let (kind, detail) = match verdict {
                Verdict::Healthy => {
                    grace = grace.saturating_sub(1);
                    continue;
                }
                Verdict::Panicked(names) => (
                    RecoveryKind::Restart,
                    format!("panic in {}", names.join(", ")),
                ),
                Verdict::Stuck { .. } if grace > 0 => {
                    grace -= 1;
                    continue;
                }
                Verdict::Stuck { graph, threads, .. } => {
                    pull_lever(&mut sim, &graph, &threads, cfg, &mut donation_enabled)
                        .unwrap_or_else(|| {
                            let parties: Vec<&str> = threads.iter().map(|w| &w.name[..]).collect();
                            let detail = format!("unrecoverable wedge: {}", parties.join(", "));
                            (RecoveryKind::Restart, detail)
                        })
                }
            };
            actions.push(RecoveryAction {
                attempt,
                at: sim.now(),
                kind,
                detail,
            });
            if kind == RecoveryKind::Restart {
                restart = true;
                break;
            }
            grace = cfg.grace_slices;
        }
        total_volume += sim.stats().event_volume() - base_volume;
        if restart && !remaining.is_zero() {
            restarts += 1;
            if restarts > cfg.max_restarts {
                gave_up = true;
            } else {
                // Exponential backoff eats into the remaining budget.
                let backoff =
                    SimDuration::from_micros(cfg.backoff.as_micros() << (restarts - 1).min(20));
                remaining = remaining.saturating_sub(backoff);
                if !remaining.is_zero() {
                    attempt += 1;
                    continue;
                }
                gave_up = true;
            }
        } else if restart {
            // Restart wanted but no time left to try.
            gave_up = true;
        }
        let healthy_at_end = !gave_up
            && last_report
                .is_none_or(|report| judge(&sim, &report, Some(cfg.wedge_threshold)).is_healthy());
        return (
            Supervision {
                attempts: attempt + 1,
                actions,
                restarts,
                gave_up,
                total_volume,
                final_elapsed: attempt_elapsed,
                healthy_at_end,
            },
            sim,
        );
    }
}

/// Pulls the mildest lever on the ladder that acts on a stuck world —
/// rungs 1 to 3 — and names it; `None` leaves only the restart.
fn pull_lever(
    sim: &mut Sim,
    graph: &WaitForGraph,
    stuck: &[WaitingThread],
    cfg: &SupervisorConfig,
    donation_enabled: &mut bool,
) -> Option<(RecoveryKind, String)> {
    // Ladder rung 1: fork outage (§5.4).
    if stuck.iter().any(|w| matches!(w.kind, BlockKind::Fork)) {
        let n = sim.fail_pending_forks();
        if n > 0 {
            let detail = format!("failed {n} pending fork(s)");
            return Some((RecoveryKind::FailPendingForks, detail));
        }
    }
    // Ladder rung 2: §6.2 priority inversion — a high-priority thread
    // aged out behind a *runnable* lower-priority holder. Metalock
    // inversions get donation first (the paper's §6.2 metalock fix); what
    // remains gets a direct priority boost. Stalled holders are skipped:
    // un-sticking an unresponsive thread is rejuvenation's job, not a
    // priority problem.
    for inv in graph.inversions(cfg.wedge_threshold) {
        if inv.holder_stalled {
            continue;
        }
        if inv.kind == BlockKind::Metalock && !*donation_enabled {
            let cleared = sim.set_metalock_donation(true);
            *donation_enabled = true;
            let detail = format!(
                "donated {cleared} stuck metalock window(s); {} was starving {}",
                inv.holder_name, inv.victim_name
            );
            return Some((RecoveryKind::EnableMetalockDonation, detail));
        }
        if sim.set_thread_priority(inv.holder, inv.victim_priority) {
            let detail = format!(
                "boosted {} to p{} ({} starving behind it)",
                inv.holder_name,
                inv.victim_priority.get(),
                inv.victim_name
            );
            return Some((RecoveryKind::PriorityBoost, detail));
        }
    }
    // Ladder rung 3: the wedge chain roots at a stalled thread (§5.2 task
    // rejuvenation).
    stuck.iter().find_map(|w| {
        let root = graph.root_of(w.tid)?;
        let (tid, name) = graph.stalled.iter().find(|(tid, _)| *tid == root)?;
        let detail = || (RecoveryKind::Rejuvenate, format!("rejuvenated {name}"));
        sim.rejuvenate(*tid).then(detail)
    })
}

/// A supervised benchmark run with its degradation score.
#[derive(Debug)]
pub struct SupervisedBench {
    /// The harvested measurements of the final attempt.
    pub result: BenchResult,
    /// The supervisor's log.
    pub supervision: Supervision,
    /// Event volume of the clean comparison run.
    pub clean_volume: u64,
    /// Event volume achieved across every attempt divided by
    /// [`SupervisedBench::clean_volume`], capped at 1: 1.0 is no
    /// degradation, 0.0 nothing completed.
    pub degradation: f64,
}

/// Runs the matrix cell `spec` names under `chaos`, with its seed,
/// thread cap and policy, with the supervisor watching over `cfg`'s
/// window, and scores the degradation against a clean run of the same
/// cell over the same window. `spec`'s own window and watch are not
/// read.
///
/// # Panics
///
/// If `spec` names a world outside the matrix: only a cell harvests.
pub fn supervise_benchmark(
    spec: &TrialSpec,
    chaos: ChaosConfig,
    cfg: &SupervisorConfig,
) -> SupervisedBench {
    let TrialWorld::Cell { system, benchmark } = spec.world else {
        panic!(
            "supervise_benchmark needs a matrix cell, not {}",
            spec.world.label()
        );
    };
    // The clean yardstick: same cell, same seed, no faults, no cap.
    let yardstick = TrialSpec {
        max_threads: None,
        ..spec.clone()
    };
    let mut clean = yardstick.build(ChaosConfig::none());
    let clean_base = clean.stats().event_volume();
    clean.run(RunLimit::For(cfg.window));
    let clean_volume = clean.stats().event_volume() - clean_base;
    drop(clean);

    let mut start_stats = SimStats::default();
    let mut start_alloc = pcr::AllocCounters::default();
    let (supervision, mut sim) = supervise(
        |attempt| {
            // Each attempt reseeds deterministically so a restart does
            // not replay the exact same misfortune.
            let attempt = TrialSpec {
                seed: spec
                    .seed
                    .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37)),
                ..spec.clone()
            };
            let mut sim = attempt.build(chaos.clone());
            start_stats = sim.stats().clone();
            start_alloc = sim.alloc_counters();
            sim.set_sink(Box::new(Collector::for_sim(&sim)));
            sim
        },
        cfg,
    );
    let hazards = sim.hazards().map(|h| h.counts()).unwrap_or_default();
    let result = harvest(
        &mut sim,
        system,
        benchmark,
        &start_stats,
        start_alloc,
        supervision.final_elapsed,
        hazards,
    );
    let degradation = if clean_volume == 0 {
        1.0
    } else {
        (supervision.total_volume as f64 / clean_volume as f64).min(1.0)
    };
    SupervisedBench {
        result,
        supervision,
        clean_volume,
        degradation,
    }
}

/// Runs `sim` over `cfg`'s window *without* the supervisor and reports
/// whether it ends failed — wedged, deadlocked, or panicked, as
/// [`judge`] sees it: the comparison line for `repro chaos --recover`.
pub fn unsupervised_wedges(mut sim: Sim, cfg: &SupervisorConfig) -> bool {
    let report = sim.run(RunLimit::For(cfg.window));
    !judge(&sim, &report, Some(cfg.wedge_threshold)).is_healthy()
}
