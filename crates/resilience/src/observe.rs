//! Running one trial under a failure watch.
//!
//! A *trial* is one world run under some chaos configuration for a
//! bounded virtual window, executed in slices so the watcher can
//! inspect the wait-for graph between them. The first slice after which
//! [`judge`] finds the world failed ends the trial with a [`Failure`].
//!
//! Four world families are observable ([`TrialWorld`]):
//!
//! * **Cell** — a `(system, benchmark)` cell of the paper's matrix,
//!   built by [`workloads`];
//! * **MultiCore** — a seed-dependent transfer mesh on
//!   [`pcr::Sim::with_cpus`], where tellers lock account pairs in
//!   seed-derived orders (AB-BA deadlocks for the unlucky orders, §5.3);
//! * **WeakMemory** — the §5.5 publication race on [`pcr::weakmem`]: a
//!   publisher stores data then flag with no fence, and the reader
//!   panics when the flag outruns the data;
//! * **Serve** — a small, hot cell of the overload-resilient serve world.
//!
//! [`TrialSpec::build`] builds every one of them. The same function
//! serves both directions: recording (probabilistic chaos, harvesting
//! [`pcr::Sim::fault_schedule`]) and replaying (a scripted
//! [`FaultSchedule`], which by the `pcr` fixed-point property reproduces
//! the recorded run byte-for-byte).

use pcr::{
    micros, millis, weakmem::WeakMem, ChaosConfig, FaultSchedule, Priority, RunLimit, Sim,
    SimConfig, SimDuration, SplitMix64, StopReason,
};
use workloads::serve::ServeScenario;
use workloads::System;
use workloads::{build_chaos_with, Benchmark};

use crate::case::StoredCase;
use crate::judge::{judge, Verdict};
use crate::signature::{Failure, FailureClass};

/// Which world a trial runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialWorld {
    /// A `(system, benchmark)` cell of the paper's matrix.
    Cell {
        /// Which system's world to build.
        system: System,
        /// Which benchmark drives it.
        benchmark: Benchmark,
    },
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
        scenario: ServeScenario,
    },
}

impl TrialWorld {
    /// Stable serialization tag: `cell` (a case file names the cell in
    /// its own `system` and `benchmark` keys), `mp:N`, `weakmem:D`, or
    /// `serve:SCENARIO`.
    pub fn tag(&self) -> String {
        match self {
            TrialWorld::Cell { .. } => "cell".to_string(),
            TrialWorld::MultiCore { cpus } => format!("mp:{cpus}"),
            TrialWorld::WeakMemory { max_delay_us } => format!("weakmem:{max_delay_us}"),
            TrialWorld::Serve { scenario } => format!("serve:{}", scenario.label()),
        }
    }

    /// Parses the tag of a world outside the matrix back into the world.
    /// A cell's tag does not name its cell, so `cell` is an error here.
    pub fn from_tag(tag: &str) -> Result<TrialWorld, String> {
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
            let scenario = ServeScenario::from_label(s)
                .ok_or_else(|| format!("bad serve world {tag:?}: unknown scenario {s:?}"))?;
            return Ok(TrialWorld::Serve { scenario });
        }
        Err(format!("unknown trial world {tag:?}"))
    }

    /// The world's name in tables and progress lines: `Cedar/Keyboard`
    /// for a cell, its tag (`mp:2`, `serve:burst`) for any other.
    pub fn label(&self) -> String {
        match self {
            TrialWorld::Cell { system, benchmark } => format!("{}/{benchmark}", system.name()),
            other => other.tag(),
        }
    }

    /// Filesystem-safe prefix for stored-case file names.
    pub fn file_prefix(&self) -> String {
        match self {
            TrialWorld::Cell { system, benchmark } => format!(
                "{}-{}",
                system.name().to_ascii_lowercase(),
                benchmark.to_string().to_ascii_lowercase()
            ),
            TrialWorld::MultiCore { cpus } => format!("mp{cpus}"),
            TrialWorld::WeakMemory { max_delay_us } => format!("weakmem{max_delay_us}"),
            TrialWorld::Serve { scenario } => format!("serve-{}", scenario.label()),
        }
    }
}

/// Everything that identifies one trial besides its chaos configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialSpec {
    /// Which world to run.
    pub world: TrialWorld,
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

impl TrialSpec {
    /// Builds the world this spec names under `chaos`, with its seed,
    /// thread cap and policy: the one builder behind [`observe`], the
    /// supervisor's attempts and its clean yardstick, and the
    /// unsupervised runs of `repro chaos --recover`. The multiprocessor
    /// mesh takes none of `chaos`, the cap or the policy.
    pub fn build(&self, chaos: ChaosConfig) -> Sim {
        match self.world {
            TrialWorld::Cell { system, benchmark } => {
                build_chaos_with(system, benchmark, self.seed, chaos, |cfg| {
                    let cfg = cfg.with_policy(self.policy);
                    match self.max_threads {
                        Some(n) => cfg.with_max_threads(n),
                        None => cfg,
                    }
                })
            }
            TrialWorld::MultiCore { cpus } => build_mesh(self.seed, cpus),
            TrialWorld::WeakMemory { max_delay_us } => {
                build_weakmem_world(self, chaos, max_delay_us)
            }
            TrialWorld::Serve { scenario } => {
                workloads::serve::build_fuzz_world(scenario, self.seed, chaos, self.max_threads)
            }
        }
    }
}

/// The outcome of one trial.
#[derive(Debug)]
pub struct Observation {
    /// The failure, if the trial failed within the window.
    pub failure: Option<Failure>,
    /// The fault schedule the run actually executed (recorded from the
    /// RNG in probabilistic mode, echoed back in scripted mode).
    pub schedule: FaultSchedule,
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

/// The failure a verdict names, if any: a stuck thread is a party
/// `name(blockkind)` blocked on its resource, a panicked one
/// `name(panic)`.
fn failure(verdict: Verdict) -> Option<Failure> {
    match verdict {
        Verdict::Healthy => None,
        Verdict::Panicked(names) => Some(Failure {
            class: FailureClass::Panic,
            parties: names.iter().map(|n| format!("{n}(panic)")).collect(),
            resources: Vec::new(),
            detail: String::new(),
        }),
        Verdict::Stuck {
            deadlock,
            graph,
            threads,
        } => {
            let party = |w: &pcr::WaitingThread| {
                (format!("{}({})", w.name, w.kind.tag()), w.resource.clone())
            };
            let (parties, resources) = threads.iter().map(party).unzip();
            Some(Failure {
                class: if deadlock {
                    FailureClass::Deadlock
                } else {
                    FailureClass::Wedge
                },
                parties,
                resources,
                detail: graph.render(),
            })
        }
    }
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

/// Builds the multiprocessor transfer mesh: four tellers move value
/// between three accounts, each locking its account pair in a
/// seed-derived order. Opposing orders race into AB-BA deadlock; the
/// wait-for graph's population becomes the failure's parties.
fn build_mesh(seed: u64, cpus: u32) -> Sim {
    let cfg = SimConfig::default().with_seed(seed);
    let mut mp = Sim::with_cpus(cfg, cpus.max(1) as usize);
    let accounts: Vec<_> = (0..3)
        .map(|i| mp.monitor(&format!("account{i}"), 100i64))
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0xAB5A_AB5A);
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
    mp
}

/// Runs one trial of `spec` under `chaos` and watches it for failure.
///
/// Deterministic: the same `(spec, chaos)` observes the same outcome,
/// schedule, and elapsed time every call.
pub fn observe(spec: &TrialSpec, chaos: ChaosConfig) -> Observation {
    // The mesh runs its whole window as one slice with the wedge check
    // off, and names no live thread or monitor for the guided engine to
    // aim at: its stored signatures and their counts are pinned to
    // exactly this.
    let watched = !matches!(spec.world, TrialWorld::MultiCore { .. });
    let (slice, wedge_threshold) = if watched {
        (spec.slice, Some(spec.wedge_threshold))
    } else {
        (spec.window, None)
    };
    let mut sim = spec.build(chaos);
    let mut remaining = spec.window;
    let mut elapsed = SimDuration::ZERO;
    let mut failed = None;
    while !remaining.is_zero() {
        let step = slice.min(remaining);
        let report = sim.run(RunLimit::For(step));
        elapsed += report.elapsed;
        remaining = remaining.saturating_sub(step);
        failed = failure(judge(&sim, &report, wedge_threshold));
        if failed.is_some() || matches!(report.reason, StopReason::AllExited) {
            break;
        }
    }
    let (mut live_threads, mut monitors) = (Vec::new(), Vec::new());
    if watched {
        live_threads = sim
            .threads_iter()
            .filter(|t| !t.exited)
            .map(|t| t.name.to_string())
            .collect();
        live_threads.sort();
        live_threads.dedup();
        monitors = sim.monitor_names();
    }
    Observation {
        failure: failed,
        schedule: sim.fault_schedule(),
        elapsed,
        live_threads,
        monitors,
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
    observe(&case.spec, ChaosConfig::none().scripted(schedule.clone()))
}
