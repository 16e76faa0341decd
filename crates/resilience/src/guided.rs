//! Coverage-guided schedule exploration.
//!
//! The grid fuzzer ([`crate::fuzz`]) spends its whole budget on
//! enumeration: every trial is an independent draw from the cell ×
//! intensity × seed lattice. The guided fuzzer instead keeps a **corpus**
//! of interesting cases — one per distinct failure signature — and
//! spends most of its budget *mutating* corpus schedules, biased toward
//! the entries whose mutations keep discovering new signatures:
//!
//! * every corpus entry carries an **energy** score; novelty earns
//!   energy, sterile mutations drain it (never below a floor, so no
//!   entry starves completely);
//! * mutation picks a parent by energy-weighted draw, then applies one
//!   of the schedule mutations below and replays the mutated schedule
//!   as a scripted trial — deterministic, like every other trial;
//! * every third trial is taken from the plain grid enumeration, so the
//!   corpus keeps being seeded with structurally fresh failures and a
//!   guided run can never do *worse* than a third of a grid run.
//!
//! Schedule mutations (all deterministic from the run's base seed):
//!
//! | name            | effect |
//! |-----------------|--------|
//! | `splice-stall`  | add a long stall of a thread that was live at failure time, half the time gated on it holding one of the world's monitors (§6.2's preempted lock holder) |
//! | `perturb-stall` | move or scale an existing stall |
//! | `drop-decision` | delete one recorded fault decision |
//! | `perturb-param` | scale one decision's parameter (timer skew, stall length) |
//! | `pct-inject`    | add PCT priority-change points at random dispatch sites |
//! | `reseed`        | replay the same schedule against a fresh simulator seed |
//! | `intensity-hop` | re-run the parent's cell under a different ladder rung |
//! | `gate-probe`    | drop the parent's schedule and stall one live thread the moment it holds one monitor — a clean §6.2 preempted-lock-holder experiment per (thread, monitor) pair |
//!
//! The headline metric is **distinct signatures per CPU-minute**; the
//! guided fuzzer exists to beat the grid on it, and the CI smoke job
//! fails if it ever stops doing so.

use std::sync::Arc;
use std::time::Duration;

use pcr::{
    millis, ChaosConfig, FaultDecision, FaultSchedule, FaultSiteKind, Priority, SimTime,
    SplitMix64, StallSpec,
};

use crate::case::StoredCase;
use crate::fuzz::{grid_trial, ladder, FoundCase, FuzzConfig, Intensity};
use crate::observe::observe;

/// Energy a corpus entry starts with, and what novelty re-earns.
const ENERGY_START: u32 = 8;
/// Energy floor: no entry is ever fully starved of mutation attempts.
const ENERGY_FLOOR: u32 = 1;

/// Every mutation the engine can apply, in draw order. `gate-probe` is
/// drawn with extra weight (see [`draw_mutation`]): its search space per
/// cell is just threads × monitors, so a boosted draw rate covers it
/// within a normal fuzz budget.
const MUTATIONS: [&str; 8] = [
    "splice-stall",
    "perturb-stall",
    "drop-decision",
    "perturb-param",
    "pct-inject",
    "reseed",
    "intensity-hop",
    "gate-probe",
];

/// Draws the next mutation: `gate-probe` a third of the time, the rest
/// uniformly. Gate probes are the engine's most productive dimension
/// (each is a fresh §6.2 preempted-lock-holder experiment the intensity
/// rungs never run), and their space is small enough that the boosted
/// rate exhausts it.
fn draw_mutation(rng: &mut SplitMix64) -> &'static str {
    if rng.next_below(3) == 0 {
        "gate-probe"
    } else {
        MUTATIONS[rng.next_below(MUTATIONS.len() as u64 - 1) as usize]
    }
}

struct CorpusEntry {
    case: StoredCase,
    live_threads: Vec<String>,
    /// The gates a mutation may name ([`gate_names`]).
    monitors: Vec<Arc<str>>,
    energy: u32,
}

/// The `while_holding` gates a world offers: its monitor names
/// ([`crate::Observation::monitors`]), sorted and de-duplicated, so a
/// draw picks uniformly among distinct names whatever order the world
/// registered them in. Done once per corpus entry, not per trial.
fn gate_names(mut monitors: Vec<Arc<str>>) -> Vec<Arc<str>> {
    monitors.sort();
    monitors.dedup();
    monitors
}

/// One new signature first reached by a mutation (rather than the grid).
#[derive(Debug)]
pub struct MutationDiscovery {
    /// Which mutation produced it.
    pub mutation: String,
    /// The signature of the parent case that was mutated.
    pub parent: String,
    /// The newly discovered signature.
    pub signature: String,
}

/// The result of a guided sweep.
#[derive(Debug)]
pub struct GuidedOutcome {
    /// Trials actually run.
    pub trials: u32,
    /// Trials that failed (including duplicates of known signatures).
    pub failures: u32,
    /// Unique failures, sorted by signature.
    pub cases: Vec<FoundCase>,
    /// Signatures first reached by mutation rather than grid
    /// enumeration, in discovery order.
    pub mutation_discoveries: Vec<MutationDiscovery>,
}

fn weighted_pick(rng: &mut SplitMix64, corpus: &[CorpusEntry]) -> usize {
    let total: u64 = corpus.iter().map(|e| u64::from(e.energy)).sum();
    let mut draw = rng.next_below(total.max(1));
    for (i, e) in corpus.iter().enumerate() {
        let w = u64::from(e.energy);
        if draw < w {
            return i;
        }
        draw -= w;
    }
    corpus.len() - 1
}

/// Applies one mutation to a parent entry, returning the mutated case to
/// replay plus the scripted chaos to run it under. `None` means the
/// drawn mutation has nothing to act on (e.g. `drop-decision` with no
/// recorded decisions) — the caller redraws.
fn mutate(
    rng: &mut SplitMix64,
    parent: &CorpusEntry,
    mutation: &str,
) -> Option<(StoredCase, ChaosConfig)> {
    let mut case = parent.case.clone();
    let window_us = case.spec.window.as_micros().max(1);
    match mutation {
        "splice-stall" => {
            let thread = if parent.live_threads.is_empty() {
                return None;
            } else {
                parent.live_threads[rng.next_below(parent.live_threads.len() as u64) as usize]
                    .clone()
            };
            // Half the splices gate on a monitor (§6.2's preempted lock
            // holder): an ungated stall almost never catches a thread
            // mid-critical-section by chance, so gating is what unlocks
            // wedge party sets the intensity rungs never produce.
            let gated = !parent.monitors.is_empty() && rng.next_below(2) == 0;
            if gated {
                let m = &parent.monitors[rng.next_below(parent.monitors.len() as u64) as usize];
                case.schedule.stalls.push(StallSpec {
                    thread,
                    at: SimTime::from_micros(rng.next_below((window_us / 2).max(1))),
                    duration: case.spec.window,
                    while_holding: Some(m.to_string()),
                });
            } else {
                case.schedule.stalls.push(StallSpec {
                    thread,
                    at: SimTime::from_micros(rng.next_below(window_us)),
                    duration: millis(500 + rng.next_below(window_us / 1000 + 1) * 4),
                    while_holding: None,
                });
            }
        }
        "perturb-stall" => {
            let n = case.schedule.stalls.len();
            if n == 0 {
                return None;
            }
            let s = &mut case.schedule.stalls[rng.next_below(n as u64) as usize];
            if rng.next_below(2) == 0 {
                s.at = SimTime::from_micros(rng.next_below(window_us));
            } else {
                let scale = 1 + rng.next_below(4);
                s.duration = millis((s.duration.as_micros() / 1000).max(1) * scale);
            }
        }
        "drop-decision" => {
            let n = case.schedule.decisions.len();
            if n == 0 {
                return None;
            }
            case.schedule
                .decisions
                .remove(rng.next_below(n as u64) as usize);
        }
        "perturb-param" => {
            let n = case.schedule.decisions.len();
            if n == 0 {
                return None;
            }
            let d = &mut case.schedule.decisions[rng.next_below(n as u64) as usize];
            d.param_us = match d.kind {
                // Priority levels stay in range; durations scale freely.
                FaultSiteKind::PriorityChange => 1 + rng.next_below(Priority::LEVELS as u64),
                _ => (d.param_us.max(1)).saturating_mul(1 + rng.next_below(8)),
            };
        }
        "pct-inject" => {
            for _ in 0..(1 + rng.next_below(3)) {
                case.schedule.decisions.push(FaultDecision {
                    kind: FaultSiteKind::PriorityChange,
                    site: rng.next_below(4096),
                    param_us: 1 + rng.next_below(Priority::LEVELS as u64),
                });
            }
        }
        "reseed" => {
            case.spec.seed = rng.next_u64();
        }
        "gate-probe" => {
            // Drop the parent's schedule entirely (so its failure cannot
            // recur first and mask the probe) and stall one live thread
            // the moment it next holds one of the world's monitors — a
            // clean-room §6.2 preempted-lock-holder experiment.
            if parent.live_threads.is_empty() || parent.monitors.is_empty() {
                return None;
            }
            let thread = parent.live_threads
                [rng.next_below(parent.live_threads.len() as u64) as usize]
                .clone();
            let m = &parent.monitors[rng.next_below(parent.monitors.len() as u64) as usize];
            case.schedule = FaultSchedule::default();
            case.schedule.stalls.push(StallSpec {
                thread,
                at: SimTime::from_micros(250_000),
                duration: case.spec.window,
                while_holding: Some(m.to_string()),
            });
        }
        _ => return None,
    }
    let chaos = ChaosConfig::none().scripted(case.schedule.clone());
    Some((case, chaos))
}

/// The intensity-hop mutation needs the ladder, so it is handled apart
/// from the schedule mutations: re-run the parent's cell under a
/// different rung with a fresh derived seed.
fn intensity_hop(
    rng: &mut SplitMix64,
    parent: &CorpusEntry,
    ladders: &[Vec<Intensity>],
    cfg: &FuzzConfig,
) -> Option<(StoredCase, ChaosConfig, String)> {
    let cell_index = cfg
        .cells
        .iter()
        .position(|&w| w == parent.case.spec.world)?;
    let ladder = &ladders[cell_index];
    if ladder.len() < 2 {
        return None;
    }
    let rung = &ladder[rng.next_below(ladder.len() as u64) as usize];
    if rung.name == parent.case.intensity {
        return None;
    }
    let mut case = parent.case.clone();
    case.spec.seed = rng.next_u64();
    case.spec.max_threads = rung.max_threads;
    case.schedule = FaultSchedule::default();
    Some((case, rung.chaos.clone(), rung.name.to_string()))
}

/// Runs a signature-novelty-guided sweep under the same budget semantics
/// as [`crate::fuzz::fuzz`]. Deterministic for a given config.
pub fn guided_fuzz(cfg: &FuzzConfig, mut progress: impl FnMut(&str)) -> GuidedOutcome {
    assert!(!cfg.cells.is_empty(), "guided fuzz needs at least one cell");
    let ladders: Vec<Vec<Intensity>> = cfg.cells.iter().copied().map(ladder).collect();
    let mut rng = SplitMix64::new(cfg.base_seed ^ 0x6D1D_ED5E_ED5E_ED01);
    let start = std::time::Instant::now();
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut counts: Vec<(String, u32)> = Vec::new();
    let mut mutation_discoveries = Vec::new();
    let mut trials = 0u32;
    let mut failures = 0u32;
    let mut grid_cursor = 0u32;
    for i in 0..cfg.budget {
        if let Some(ms) = cfg.wall_budget_ms {
            if start.elapsed().as_millis() as u64 >= ms {
                progress(&format!("wall budget exhausted after {i} trials"));
                break;
            }
        }
        // Every third trial explores the plain grid; the rest exploit
        // the corpus. With no corpus yet, everything explores.
        let explore = corpus.is_empty() || i % 3 == 0;
        let (case, chaos, label, parent_index) = if explore {
            let (spec, rung) = grid_trial(cfg, &ladders, grid_cursor);
            grid_cursor += 1;
            let case = StoredCase {
                spec,
                intensity: rung.name.to_string(),
                signature: String::new(),
                schedule: FaultSchedule::default(),
            };
            (
                case,
                rung.chaos.clone(),
                format!("grid:{}", rung.name),
                None,
            )
        } else {
            let parent_index = weighted_pick(&mut rng, &corpus);
            // Redraw until a mutation applies; every parent admits at
            // least `reseed` and `pct-inject`, so this terminates.
            loop {
                let mutation = draw_mutation(&mut rng);
                let mutated = if mutation == "intensity-hop" {
                    intensity_hop(&mut rng, &corpus[parent_index], &ladders, cfg)
                        .map(|(case, chaos, rung_name)| (case, chaos, format!("hop:{rung_name}")))
                } else {
                    mutate(&mut rng, &corpus[parent_index], mutation)
                        .map(|(case, chaos)| (case, chaos, mutation.to_string()))
                };
                if let Some((mut case, chaos, label)) = mutated {
                    case.intensity = format!("guided:{label}");
                    break (case, chaos, label, Some(parent_index));
                }
            }
        };
        trials += 1;
        let obs = observe(&case.spec, chaos);
        match obs.failure {
            None => {
                progress(&format!(
                    "trial {i}: {label} seed={:x} — clean",
                    case.spec.seed
                ));
                if let Some(p) = parent_index {
                    corpus[p].energy = corpus[p].energy.saturating_sub(1).max(ENERGY_FLOOR);
                }
            }
            Some(failure) => {
                failures += 1;
                let signature = failure.signature();
                progress(&format!(
                    "trial {i}: {label} seed={:x} — {} after {}",
                    case.spec.seed, signature, obs.elapsed
                ));
                match counts.iter_mut().find(|(s, _)| *s == signature) {
                    Some((_, n)) => {
                        *n += 1;
                        if let Some(p) = parent_index {
                            corpus[p].energy = corpus[p].energy.saturating_sub(1).max(ENERGY_FLOOR);
                        }
                    }
                    None => {
                        counts.push((signature.clone(), 1));
                        if let Some(p) = parent_index {
                            // Novelty pays the parent back with energy.
                            corpus[p].energy += ENERGY_START;
                            mutation_discoveries.push(MutationDiscovery {
                                mutation: label.clone(),
                                parent: corpus[p].case.signature.clone(),
                                signature: signature.clone(),
                            });
                        }
                        let mut stored = case;
                        stored.signature = signature;
                        // The schedule the run *actually executed* is
                        // what replays, not the mutation input (the run
                        // may have recorded extra probabilistic draws).
                        stored.schedule = obs.schedule;
                        corpus.push(CorpusEntry {
                            case: stored,
                            live_threads: obs.live_threads,
                            monitors: gate_names(obs.monitors),
                            energy: ENERGY_START,
                        });
                    }
                }
            }
        }
    }
    let mut cases: Vec<FoundCase> = corpus
        .into_iter()
        .map(|e| {
            let count = counts
                .iter()
                .find(|(s, _)| *s == e.case.signature)
                .map_or(1, |(_, n)| *n);
            FoundCase {
                case: e.case,
                count,
                live_threads: e.live_threads,
            }
        })
        .collect();
    cases.sort_by(|a, b| a.case.signature.cmp(&b.case.signature));
    GuidedOutcome {
        trials,
        failures,
        cases,
        mutation_discoveries,
    }
}

/// Distinct signatures per CPU-minute of a sweep that ran on `workers`
/// threads for `wall`: the tracked coverage metric.
pub fn signatures_per_cpu_minute(distinct: usize, wall: Duration, workers: usize) -> f64 {
    let minutes = wall.as_secs_f64() * workers as f64 / 60.0;
    if minutes <= 0.0 {
        return 0.0;
    }
    distinct as f64 / minutes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{TrialSpec, TrialWorld};
    use pcr::{secs, SimDuration};
    use workloads::{Benchmark, System};

    fn cell(system: System, benchmark: Benchmark) -> TrialWorld {
        TrialWorld::Cell { system, benchmark }
    }

    fn spec(world: TrialWorld, seed: u64, window: SimDuration) -> TrialSpec {
        TrialSpec {
            world,
            seed,
            window,
            slice: millis(250),
            wedge_threshold: millis(500),
            max_threads: None,
            policy: pcr::PolicyKind::RoundRobin,
        }
    }

    #[test]
    fn two_workers_halve_the_signature_rate() {
        assert_eq!(signatures_per_cpu_minute(6, Duration::new(60, 0), 2), 3.0);
    }

    #[test]
    fn weighted_pick_respects_energy() {
        let entry = |energy| CorpusEntry {
            case: StoredCase {
                spec: spec(cell(System::Cedar, Benchmark::Idle), 1, secs(1)),
                intensity: "preset".to_string(),
                signature: "sig".to_string(),
                schedule: FaultSchedule::default(),
            },
            live_threads: Vec::new(),
            monitors: Vec::new(),
            energy,
        };
        let corpus = vec![entry(1), entry(100)];
        let mut rng = SplitMix64::new(7);
        let hits = (0..200)
            .filter(|_| weighted_pick(&mut rng, &corpus) == 1)
            .count();
        assert!(hits > 150, "high-energy entry picked only {hits}/200 times");
    }

    #[test]
    fn gates_are_the_sorted_distinct_monitor_names_of_the_world() {
        use pcr::RunLimit;
        use workloads::serve::ServeScenario;
        let trial = |world| spec(world, 0x6A7E, secs(1));
        let scenario = ServeScenario::Burst;
        let clean = ChaosConfig::none;
        for (spec, mut same_world) in [
            (
                trial(cell(System::Cedar, Benchmark::Keyboard)),
                workloads::runner::build(System::Cedar, Benchmark::Keyboard, 0x6A7E),
            ),
            (
                trial(TrialWorld::Serve { scenario }),
                workloads::serve::build_fuzz_world(scenario, 0x6A7E, clean(), None),
            ),
        ] {
            same_world.run(RunLimit::For(spec.window));
            let mut want = same_world.monitor_names();
            let registered = want.len();
            want.sort();
            want.dedup();
            let obs = observe(&spec, clean());
            assert!(obs.failure.is_none(), "{:?}", obs.failure);
            assert_eq!(obs.monitors.len(), registered, "in id order, repeats kept");
            assert_eq!(gate_names(obs.monitors), want);
            assert!(want.len() > 5, "{:?}: {want:?}", spec.world);
        }
    }

    #[test]
    fn schedule_mutations_are_deterministic_and_stay_valid() {
        let parent = CorpusEntry {
            case: StoredCase {
                spec: TrialSpec {
                    wedge_threshold: millis(1500),
                    ..spec(cell(System::Gvx, Benchmark::Scroll), 0xABC, secs(6))
                },
                intensity: "preset".to_string(),
                signature: "wedge:[x(monitor)]".to_string(),
                schedule: FaultSchedule {
                    decisions: vec![FaultDecision {
                        kind: FaultSiteKind::TimerJitter,
                        site: 3,
                        param_us: 120,
                    }],
                    stalls: vec![StallSpec {
                        thread: "GVX.InputPoller".to_string(),
                        at: SimTime::from_micros(1_000_000),
                        duration: secs(9),
                        while_holding: None,
                    }],
                },
            },
            live_threads: vec!["GVX.Painter".to_string()],
            monitors: vec!["display".into()],
            energy: ENERGY_START,
        };
        for mutation in MUTATIONS.iter().filter(|m| **m != "intensity-hop") {
            let a = mutate(&mut SplitMix64::new(42), &parent, mutation);
            let b = mutate(&mut SplitMix64::new(42), &parent, mutation);
            let (ca, _) = a.expect(mutation);
            let (cb, _) = b.expect(mutation);
            assert_eq!(ca.schedule, cb.schedule, "{mutation} not deterministic");
            assert_eq!(
                ca.spec.seed, cb.spec.seed,
                "{mutation} seed not deterministic"
            );
            for d in &ca.schedule.decisions {
                if d.kind == FaultSiteKind::PriorityChange {
                    assert!((1..=Priority::LEVELS as u64).contains(&d.param_us));
                }
            }
        }
    }
}
