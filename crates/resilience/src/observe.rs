//! Running one trial under a failure watch.
//!
//! A *trial* is one world run under some chaos configuration for a
//! bounded virtual window, executed in slices so the watcher can
//! inspect the wait-for graph between them. The first slice after which
//! the world is globally deadlocked, has a panicked thread, or carries a
//! wedge older than the threshold ends the trial with a [`Failure`].
//!
//! Three world families are observable ([`TrialWorld`]):
//!
//! * **Cell** — a `(system, benchmark)` cell of the paper's matrix,
//!   built by [`workloads`];
//! * **MultiCore** — a seed-dependent transfer mesh on
//!   [`pcr::Sim::with_cpus`], where tellers lock account pairs in
//!   seed-derived orders (AB-BA deadlocks for the unlucky orders, §5.3);
//! * **WeakMemory** — the §5.5 publication race on [`pcr::weakmem`]: a
//!   publisher stores data then flag with no fence, and the reader
//!   panics when the flag outruns the data.
//!
//! The same function serves both directions: recording (probabilistic
//! chaos, harvesting [`pcr::Sim::fault_schedule`]) and replaying (a
//! scripted [`FaultSchedule`], which by the `pcr` fixed-point property
//! reproduces the recorded run byte-for-byte).

use pcr::{
    micros, millis, weakmem::WeakMem, ChaosConfig, FaultSchedule, HazardCounts, Priority, RunLimit,
    Sim, SimConfig, SimDuration, SplitMix64, StopReason, WaitForGraph,
};
use threadstudy_core::System;
use workloads::{build_chaos_with, Benchmark};

use crate::case::StoredCase;
use crate::signature::{Failure, FailureClass};

/// Which world family a trial runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialWorld {
    /// A `(system, benchmark)` cell of the paper's matrix.
    Cell,
    /// The transfer mesh on a multiprocessor [`pcr::Sim`].
    MultiCore {
        /// Simulated CPUs.
        cpus: u32,
    },
    /// The §5.5 publication race over weakly-ordered memory.
    WeakMemory {
        /// Maximum store-visibility delay, in microseconds.
        max_delay_us: u64,
    },
    /// A small, hot cell of the overload-resilient serve world
    /// (`workloads::serve`), with its own burst/outage stressors on top
    /// of whatever chaos the rung injects.
    Serve {
        /// Which canned serve scenario the cell runs.
        scenario: workloads::serve::ServeScenario,
    },
}

impl TrialWorld {
    /// Stable serialization tag: `cell`, `mp:N`, `weakmem:D`, or
    /// `serve:SCENARIO`.
    pub fn tag(&self) -> String {
        match self {
            TrialWorld::Cell => "cell".to_string(),
            TrialWorld::MultiCore { cpus } => format!("mp:{cpus}"),
            TrialWorld::WeakMemory { max_delay_us } => format!("weakmem:{max_delay_us}"),
            TrialWorld::Serve { scenario } => format!("serve:{}", scenario.label()),
        }
    }

    /// Parses a serialization tag back into a world.
    pub fn from_tag(tag: &str) -> Result<TrialWorld, String> {
        if tag == "cell" {
            return Ok(TrialWorld::Cell);
        }
        if let Some(n) = tag.strip_prefix("mp:") {
            let cpus = n
                .parse()
                .map_err(|e| format!("bad mp world {tag:?}: {e}"))?;
            return Ok(TrialWorld::MultiCore { cpus });
        }
        if let Some(d) = tag.strip_prefix("weakmem:") {
            let max_delay_us = d
                .parse()
                .map_err(|e| format!("bad weakmem world {tag:?}: {e}"))?;
            return Ok(TrialWorld::WeakMemory { max_delay_us });
        }
        if let Some(s) = tag.strip_prefix("serve:") {
            let scenario = workloads::serve::ServeScenario::from_label(s)
                .ok_or_else(|| format!("bad serve world {tag:?}: unknown scenario {s:?}"))?;
            return Ok(TrialWorld::Serve { scenario });
        }
        Err(format!("unknown trial world {tag:?}"))
    }

    /// Filesystem-safe prefix for stored-case file names.
    pub fn file_prefix(&self) -> Option<String> {
        match self {
            TrialWorld::Cell => None,
            TrialWorld::MultiCore { cpus } => Some(format!("mp{cpus}")),
            TrialWorld::WeakMemory { max_delay_us } => Some(format!("weakmem{max_delay_us}")),
            TrialWorld::Serve { scenario } => Some(format!("serve-{}", scenario.label())),
        }
    }
}

/// Everything that identifies one trial besides its chaos configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialSpec {
    /// Which world family to run. `system`/`benchmark` only select the
    /// cell when this is [`TrialWorld::Cell`].
    pub world: TrialWorld,
    /// Which system's world to build.
    pub system: System,
    /// Which benchmark drives it.
    pub benchmark: Benchmark,
    /// Simulator seed.
    pub seed: u64,
    /// Total virtual window to run before declaring the trial clean.
    pub window: SimDuration,
    /// Slice length between failure checks.
    pub slice: SimDuration,
    /// How long a thread must sit blocked before it counts as wedged.
    pub wedge_threshold: SimDuration,
    /// Optional thread-table cap (the §5.4 fork-outage lever).
    pub max_threads: Option<usize>,
    /// Which scheduling policy dispatches the trial's world. Applies to
    /// [`TrialWorld::Cell`] and [`TrialWorld::WeakMemory`]; the
    /// multiprocessor mesh always runs under the paper's.
    pub policy: pcr::PolicyKind,
}

/// The outcome of one trial.
#[derive(Debug)]
pub struct Observation {
    /// The failure, if the trial failed within the window.
    pub failure: Option<Failure>,
    /// The fault schedule the run actually executed (recorded from the
    /// RNG in probabilistic mode, echoed back in scripted mode).
    pub schedule: FaultSchedule,
    /// Hazard tallies over the run.
    pub hazards: HazardCounts,
    /// Virtual time elapsed until failure detection or window end.
    pub elapsed: SimDuration,
    /// Names of the threads still live when the trial ended — the
    /// stall-splice targets for the guided fuzzer's mutation engine.
    pub live_threads: Vec<String>,
    /// Names of the world's monitors, in id order and shared with the
    /// world that registered them (a library name can repeat) — the
    /// `while_holding` gates for the guided fuzzer's §6.2-style
    /// mid-critical-section splices. Whoever wants them sorted or unique
    /// does that itself: most trials' lists are never read.
    pub monitors: Vec<std::sync::Arc<str>>,
}

impl Observation {
    /// The failure signature, if the trial failed.
    pub fn signature(&self) -> Option<String> {
        self.failure.as_ref().map(|f| f.signature())
    }
}

/// A failure of `class` whose parties are `blocked`, threads of `graph`.
fn blocked_failure<'a>(
    class: FailureClass,
    graph: &WaitForGraph,
    blocked: impl IntoIterator<Item = &'a pcr::WaitingThread>,
) -> Failure {
    let party =
        |w: &pcr::WaitingThread| (format!("{}({})", w.name, w.kind.tag()), w.resource.clone());
    let (parties, resources) = blocked.into_iter().map(party).unzip();
    Failure {
        class,
        parties,
        resources,
        detail: graph.render(),
    }
}

/// Global deadlock: every blocked thread is a party (the clock has
/// stopped, so the wedge-age filter is moot).
fn deadlock_failure(graph: &WaitForGraph) -> Failure {
    blocked_failure(FailureClass::Deadlock, graph, &graph.threads)
}

/// Builds the §5.5 publication-race world: the publisher fills the data
/// word and then raises the flag with no intervening fence, so for some
/// visibility-delay draws the flag outruns the data and the reader's
/// staleness assert panics — the paper's "modern multiprocessors with
/// weakly ordered memory" bug, reproduced on purpose.
fn build_weakmem_world(spec: &TrialSpec, chaos: ChaosConfig, max_delay_us: u64) -> Sim {
    const DATA: usize = 0;
    const FLAG: usize = 1;
    const ROUNDS: u64 = 200;
    let cfg = SimConfig::default()
        .with_seed(spec.seed)
        .with_policy(spec.policy)
        .with_chaos(chaos);
    let mut sim = Sim::new(cfg);
    let mem = WeakMem::new(spec.seed ^ 0x7EA4_5EED, micros(max_delay_us));
    let m = mem.clone();
    let _ = sim.fork_root("wm-publisher", Priority::of(4), move |ctx| {
        for round in 1..=ROUNDS {
            m.store(ctx, DATA, round);
            ctx.work(micros(20));
            m.store(ctx, FLAG, round); // Missing fence: the §5.5 bug.
            ctx.sleep(millis(2));
        }
    });
    let _ = sim.fork_root("wm-reader", Priority::of(5), move |ctx| {
        let mut seen = 0u64;
        while seen < ROUNDS {
            let flag = mem.load(ctx, FLAG);
            if flag > seen {
                let data = mem.load(ctx, DATA);
                assert!(
                    data >= flag,
                    "stale publication: flag {flag} but data {data}"
                );
                seen = flag;
            }
            ctx.sleep_precise(micros(300));
        }
    });
    sim
}

/// Runs the multiprocessor transfer mesh: four tellers move value
/// between three accounts, each locking its account pair in a
/// seed-derived order. Opposing orders race into AB-BA deadlock; the
/// wait-for graph's population becomes the failure's parties. The whole
/// window is one run, under no chaos, and the observation names no live
/// thread or monitor for the guided engine to aim at: the mesh's stored
/// signatures and their counts are pinned to exactly this.
fn observe_multicore(spec: &TrialSpec, cpus: u32) -> Observation {
    let cfg = SimConfig::default().with_seed(spec.seed);
    let mut mp = Sim::with_cpus(cfg, cpus.max(1) as usize);
    let accounts: Vec<_> = (0..3)
        .map(|i| mp.monitor(&format!("account{i}"), 100i64))
        .collect();
    let mut rng = SplitMix64::new(spec.seed ^ 0xAB5A_AB5A);
    for t in 0..4 {
        let a = rng.next_below(accounts.len() as u64) as usize;
        let b = (a + 1 + rng.next_below(accounts.len() as u64 - 1) as usize) % accounts.len();
        let (ma, mb) = (accounts[a].clone(), accounts[b].clone());
        let _ = mp.fork_root(&format!("teller{t}"), Priority::of(4), move |ctx| {
            for _ in 0..40 {
                let mut ga = ctx.enter(&ma);
                ctx.sleep_precise(millis(2)); // threadlint: allow(blocking-call-in-monitor)
                                              // threadlint: allow(lock-order-cycle) — the seed-derived
                                              // order cycle is exactly what this world probes.
                let mut gb = ctx.enter(&mb);
                ga.with_mut(|v| *v -= 1);
                gb.with_mut(|v| *v += 1);
                drop(gb);
                drop(ga);
                ctx.work(micros(200));
            }
        });
    }
    let report = mp.run(RunLimit::For(spec.window));
    let failure = match &report.reason {
        StopReason::Deadlock(_) => Some(deadlock_failure(&mp.wait_for_graph())),
        _ if mp.stats().panics > 0 => Some(Failure {
            class: FailureClass::Panic,
            parties: vec!["mp-world(panic)".to_string()],
            resources: Vec::new(),
            detail: String::new(),
        }),
        _ => None,
    };
    Observation {
        failure,
        schedule: FaultSchedule::default(),
        hazards: HazardCounts::default(),
        elapsed: report.elapsed,
        live_threads: Vec::new(),
        monitors: Vec::new(),
    }
}

/// Runs one trial of `spec` under `chaos` and watches it for failure.
///
/// Deterministic: the same `(spec, chaos)` observes the same outcome,
/// schedule, and elapsed time every call.
pub fn observe(spec: &TrialSpec, chaos: ChaosConfig) -> Observation {
    let mut sim = match spec.world {
        TrialWorld::MultiCore { cpus } => return observe_multicore(spec, cpus),
        TrialWorld::WeakMemory { max_delay_us } => build_weakmem_world(spec, chaos, max_delay_us),
        TrialWorld::Serve { scenario } => {
            workloads::serve::build_fuzz_world(scenario, spec.seed, chaos, spec.max_threads)
        }
        TrialWorld::Cell => {
            build_chaos_with(spec.system, spec.benchmark, spec.seed, chaos, |cfg| {
                let cfg = cfg.with_policy(spec.policy);
                match spec.max_threads {
                    Some(n) => cfg.with_max_threads(n),
                    None => cfg,
                }
            })
        }
    };
    let mut remaining = spec.window;
    let mut elapsed = SimDuration::ZERO;
    let mut hazards = HazardCounts::default();
    let mut failure = None;
    while !remaining.is_zero() {
        let step = spec.slice.min(remaining);
        let report = sim.run(RunLimit::For(step));
        elapsed += report.elapsed;
        remaining = remaining.saturating_sub(step);
        hazards = report.hazards;
        if sim.stats().panics > 0 {
            let parties = sim
                .threads_iter()
                .filter(|t| t.panicked)
                .map(|t| format!("{}(panic)", t.name))
                .collect();
            failure = Some(Failure {
                class: FailureClass::Panic,
                parties,
                resources: Vec::new(),
                detail: String::new(),
            });
            break;
        }
        let graph = sim.wait_for_graph();
        if let StopReason::Deadlock(_) = report.reason {
            failure = Some(deadlock_failure(&graph));
            break;
        }
        let wedged = graph.wedged(spec.wedge_threshold);
        if !wedged.is_empty() {
            failure = Some(blocked_failure(FailureClass::Wedge, &graph, wedged));
            break;
        }
        if matches!(report.reason, StopReason::AllExited) {
            break;
        }
    }
    let mut live_threads: Vec<String> = sim
        .threads_iter()
        .filter(|t| !t.exited)
        .map(|t| t.name.to_string())
        .collect();
    live_threads.sort();
    live_threads.dedup();
    Observation {
        failure,
        schedule: sim.fault_schedule(),
        hazards,
        elapsed,
        live_threads,
        monitors: sim.monitor_names(),
    }
}

/// Replays a stored case with its own recorded schedule.
pub fn replay(case: &StoredCase) -> Observation {
    replay_schedule(case, &case.schedule)
}

/// Replays a stored case's trial under an arbitrary scripted schedule
/// (the shrinker's oracle: "does this reduced schedule still produce the
/// original failure signature?").
pub fn replay_schedule(case: &StoredCase, schedule: &FaultSchedule) -> Observation {
    observe(&case.spec(), ChaosConfig::none().scripted(schedule.clone()))
}
