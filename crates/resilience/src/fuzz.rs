//! Chaos-schedule fuzzing over the benchmark grid.
//!
//! The fuzzer enumerates trials deterministically from a budget: trial
//! `i` maps to a `(cell, intensity, seed)` triple by mixed-radix
//! decomposition, so the same budget and base seed always visit the
//! same grid in the same order. Intensity ladders are per-system and
//! front-load the fault mixes the worlds are known not to tolerate
//! (fork-table exhaustion for Cedar, a gated stall inside the screen
//! monitor for GVX), so small budgets still find real failures.
//!
//! The default grid covers the paper's full benchmark matrix — all
//! twelve `(system, benchmark)` cells of Table 1 — plus the worlds
//! outside the matrix: the multiprocessor transfer mesh on
//! [`pcr::Sim::with_cpus`] (§5.3), the §5.5 weak-memory publication race, and
//! two hot cells of the overload-resilient serve world
//! (`serve:burst`, `serve:outage`).
//!
//! Every failing trial is classified by its seed-independent signature;
//! the first trial to exhibit each signature becomes a [`StoredCase`],
//! later ones only bump its count. The returned case list is sorted by
//! signature, so the corpus a sweep writes to disk is byte-deterministic
//! regardless of discovery order.

use pcr::{millis, secs, ChaosConfig, PolicyKind, SimDuration, SimTime};
use workloads::serve::ServeScenario;
use workloads::{chaos_preset, eternal_thread_count, Benchmark, System};

use crate::case::StoredCase;
use crate::observe::{observe, Observation, TrialSpec, TrialWorld};

/// One rung of a system's chaos-intensity ladder.
#[derive(Clone, Debug)]
pub struct Intensity {
    /// Short name shown in reports and stored with each case.
    pub name: &'static str,
    /// The fault mix.
    pub chaos: ChaosConfig,
    /// Optional thread-table cap applied with this rung.
    pub max_threads: Option<usize>,
}

fn cv_storm() -> ChaosConfig {
    ChaosConfig::none()
        .spurious_wakeups(0.3)
        .duplicate_notifies(0.3)
        .jitter_timers(millis(8))
}

fn lost_wakeup() -> ChaosConfig {
    ChaosConfig::none().spurious_wakeups(0.1).drop_notifies(0.3)
}

/// The stall the GVX ladder injects: catch the input poller inside the
/// screen monitor (it holds `gvx-screen` while painting) and keep it
/// there far longer than any watchdog timeout.
fn gvx_screen_stall(chaos: ChaosConfig) -> ChaosConfig {
    chaos.stall_while_holding(
        "GVX.InputPoller",
        "gvx-screen",
        SimTime::from_micros(2_000_000),
        secs(120),
    )
}

/// The intensity ladder of one world, mildest first. Matrix cells get
/// their system's ladder, with the guaranteed-failure rungs early so
/// small budgets reach them; the out-of-matrix worlds get their own
/// short ladders (the multiprocessor mesh ignores chaos entirely — its
/// grid dimension is the seed-derived lock order).
pub fn ladder(world: TrialWorld) -> Vec<Intensity> {
    let rung = |name, chaos| Intensity {
        name,
        chaos,
        max_threads: None,
    };
    match world {
        TrialWorld::Cell {
            system: System::Cedar,
            ..
        } => vec![
            rung("preset", chaos_preset()),
            Intensity {
                name: "fork-cap",
                chaos: chaos_preset(),
                // Exactly the eternal population fits: the first runtime
                // fork (the Notifier's keystroke action) blocks forever.
                max_threads: Some(eternal_thread_count(System::Cedar)),
            },
            rung("cv-storm", cv_storm()),
            rung("lost-wakeup", lost_wakeup()),
            rung("fork-storm", chaos_preset().fail_forks(0.5)),
            rung(
                "kitchen-sink",
                cv_storm().drop_notifies(0.2).fail_forks(0.3),
            ),
            rung("pct", chaos_preset().pct(4, 4096)),
        ],
        TrialWorld::Cell {
            system: System::Gvx,
            ..
        } => vec![
            rung("preset", chaos_preset()),
            rung("stall-gated", gvx_screen_stall(chaos_preset())),
            rung("cv-storm", cv_storm()),
            rung("lost-wakeup", lost_wakeup()),
            rung(
                "kitchen-sink",
                gvx_screen_stall(cv_storm().drop_notifies(0.2)),
            ),
            rung("pct", chaos_preset().pct(4, 4096)),
        ],
        TrialWorld::MultiCore { .. } => vec![rung("mp-mesh", ChaosConfig::none())],
        TrialWorld::WeakMemory { .. } => vec![
            rung("wm-race", ChaosConfig::none()),
            rung("wm-race-pct", ChaosConfig::none().pct(4, 2048)),
        ],
        TrialWorld::Serve { .. } => vec![
            // The serve world carries its own stressors (bursts, X-server
            // outages); the clean rung probes those alone.
            rung("serve-clean", ChaosConfig::none()),
            Intensity {
                name: "serve-fork-cap",
                chaos: ChaosConfig::none(),
                // Serve.Main plus its pipeline threads need more slots
                // than this: the worker fork blocks forever (§5.4).
                max_threads: Some(2),
            },
            rung(
                "serve-stall-xconn",
                ChaosConfig::none().stall_while_holding(
                    "Serve.XConn",
                    "serve.xq",
                    SimTime::from_micros(1_000_000),
                    secs(120),
                ),
            ),
            rung("serve-cv-storm", cv_storm()),
            rung("serve-pct", chaos_preset().pct(4, 2048)),
        ],
    }
}

/// Fuzzer parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of trials to run.
    pub budget: u32,
    /// Optional wall-clock cap in milliseconds: the sweep stops early
    /// once it is exceeded (the fixed-budget mode the guided-vs-grid
    /// comparison runs under). `None` means budget-only.
    pub wall_budget_ms: Option<u64>,
    /// Base seed; trial seeds are derived from it deterministically.
    pub base_seed: u64,
    /// The worlds to sweep.
    pub cells: Vec<TrialWorld>,
    /// Per-trial virtual window.
    pub window: SimDuration,
    /// Failure-check slice.
    pub slice: SimDuration,
    /// Wedge age threshold.
    pub wedge_threshold: SimDuration,
    /// Scheduling policy every trial runs under (the multiprocessor mesh
    /// ignores it; see [`TrialSpec::policy`]).
    pub policy: PolicyKind,
}

/// The full default grid: every Table 1 matrix cell, the
/// multiprocessor mesh, the weak-memory race and two serve cells.
pub fn default_cells() -> Vec<TrialWorld> {
    let mut cells = Vec::new();
    for system in [System::Cedar, System::Gvx] {
        for &benchmark in Benchmark::suite(system) {
            cells.push(TrialWorld::Cell { system, benchmark });
        }
    }
    cells.push(TrialWorld::MultiCore { cpus: 2 });
    cells.push(TrialWorld::WeakMemory { max_delay_us: 200 });
    for scenario in [ServeScenario::Burst, ServeScenario::Outage] {
        cells.push(TrialWorld::Serve { scenario });
    }
    cells
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            budget: 64,
            wall_budget_ms: None,
            base_seed: 0x5EED,
            cells: default_cells(),
            window: secs(6),
            slice: millis(250),
            wedge_threshold: millis(1500),
            policy: PolicyKind::RoundRobin,
        }
    }
}

/// One unique failure found by a fuzz sweep.
#[derive(Debug)]
pub struct FoundCase {
    /// The first trial that exhibited this signature, replayable.
    pub case: StoredCase,
    /// How many trials in the sweep hit this signature.
    pub count: u32,
    /// Threads still live when the failing trial ended — the guided
    /// fuzzer's stall-splice targets.
    pub live_threads: Vec<String>,
}

/// The result of a fuzz sweep.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Trials actually run (may be under budget when a wall-clock cap
    /// fires).
    pub trials: u32,
    /// Trials that failed (including duplicates of known signatures).
    pub failures: u32,
    /// Unique failures, sorted by signature.
    pub cases: Vec<FoundCase>,
}

/// Maps grid-trial index `i` to its world's trial spec and rung by
/// mixed-radix decomposition over world × rung × seed — the shared
/// enumeration behind both the plain sweep and the guided fuzzer's
/// exploration trials.
pub(crate) fn grid_trial<'a>(
    cfg: &FuzzConfig,
    ladders: &'a [Vec<Intensity>],
    i: u32,
) -> (TrialSpec, &'a Intensity) {
    let cell_index = (i as usize) % cfg.cells.len();
    let ladder = &ladders[cell_index];
    let layer = (i as usize) / cfg.cells.len();
    let rung = &ladder[layer % ladder.len()];
    let seed_index = (layer / ladder.len()) as u64;
    let spec = TrialSpec {
        world: cfg.cells[cell_index],
        // SplitMix-style spread so consecutive seed indices land far
        // apart in the simulator's seed space.
        seed: cfg
            .base_seed
            .wrapping_add(seed_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        window: cfg.window,
        slice: cfg.slice,
        wedge_threshold: cfg.wedge_threshold,
        max_threads: rung.max_threads,
        policy: cfg.policy,
    };
    (spec, rung)
}

/// Sweeps `cfg.budget` trials over the cell × intensity × seed grid and
/// returns the deduplicated failures. `progress` is called once per
/// trial with a one-line description.
///
/// Serial reference driver: runs each trial on the calling thread, in
/// grid order. [`fuzz_with`] generalizes it to batched execution; this
/// wrapper is `fuzz_with` with a batch size of one and an inline runner,
/// so both paths share every line of grid enumeration and dedup logic.
pub fn fuzz(cfg: &FuzzConfig, progress: impl FnMut(&str)) -> FuzzOutcome {
    fuzz_with(cfg, progress, 1, &mut |batch| {
        batch
            .iter()
            .map(|(spec, chaos)| observe(spec, chaos.clone()))
            .collect()
    })
}

/// A batch executor for [`fuzz_with`]: given `(spec, chaos)` pairs, it
/// must return one [`Observation`] per pair, in pair order, each equal
/// to what [`observe`] would produce for that pair.
pub type BatchRunner<'a> = dyn FnMut(&[(TrialSpec, ChaosConfig)]) -> Vec<Observation> + 'a;

/// [`fuzz`], with trial execution delegated to `run_batch`.
///
/// Trials are enumerated in grid order and handed to `run_batch` in
/// consecutive chunks of up to `batch_size`; the runner must return one
/// [`Observation`] per spec, in spec order, each equal to what
/// [`observe`] would produce (every trial is an independent
/// deterministic simulation, so a parallel runner satisfies this for
/// free). Results are processed strictly in trial order, so signature
/// dedup, progress lines, and the final case list are identical at every
/// batch size; the wall-clock budget is checked at batch boundaries,
/// which with `batch_size == 1` is exactly the per-trial check.
pub fn fuzz_with(
    cfg: &FuzzConfig,
    mut progress: impl FnMut(&str),
    batch_size: usize,
    run_batch: &mut BatchRunner<'_>,
) -> FuzzOutcome {
    assert!(!cfg.cells.is_empty(), "fuzz needs at least one cell");
    let batch_size = (batch_size.max(1) as u32).min(cfg.budget.max(1));
    let ladders: Vec<Vec<Intensity>> = cfg.cells.iter().copied().map(ladder).collect();
    let start = std::time::Instant::now();
    let mut trials = 0u32;
    let mut failures = 0u32;
    let mut cases: Vec<FoundCase> = Vec::new();
    let mut next = 0u32;
    while next < cfg.budget {
        if let Some(ms) = cfg.wall_budget_ms {
            if start.elapsed().as_millis() as u64 >= ms {
                progress(&format!("wall budget exhausted after {next} trials"));
                break;
            }
        }
        let end = (next + batch_size).min(cfg.budget);
        let (specs, rungs): (Vec<(TrialSpec, ChaosConfig)>, Vec<&Intensity>) = (next..end)
            .map(|i| {
                let (spec, rung) = grid_trial(cfg, &ladders, i);
                ((spec, rung.chaos.clone()), rung)
            })
            .unzip();
        let observations = run_batch(&specs);
        assert_eq!(
            observations.len(),
            specs.len(),
            "batch runner must return one observation per spec"
        );
        let trials_in_batch = specs.into_iter().zip(rungs).zip(observations);
        for (i, (((spec, _), rung), obs)) in (next..).zip(trials_in_batch) {
            trials += 1;
            let trial = format!(
                "trial {i}: {} {} seed={:x}",
                spec.world.label(),
                rung.name,
                spec.seed
            );
            match obs.failure {
                None => progress(&format!("{trial} — clean")),
                Some(failure) => {
                    failures += 1;
                    let signature = failure.signature();
                    progress(&format!("{trial} — {signature} after {}", obs.elapsed));
                    match cases.iter_mut().find(|c| c.case.signature == signature) {
                        Some(known) => known.count += 1,
                        None => cases.push(FoundCase {
                            case: StoredCase {
                                spec,
                                intensity: rung.name.to_string(),
                                signature,
                                schedule: obs.schedule,
                            },
                            count: 1,
                            live_threads: obs.live_threads,
                        }),
                    }
                }
            }
        }
        next = end;
    }
    cases.sort_by(|a, b| a.case.signature.cmp(&b.case.signature));
    FuzzOutcome {
        trials,
        failures,
        cases,
    }
}
