//! Delta-debugging minimization of failing fault schedules, and the
//! [`cause`] of a failure, both on one replay oracle.
//!
//! The oracle is deterministic replay: a candidate schedule "passes"
//! when scripting it over the case's trial reproduces the original
//! failure signature. Passes run in a fixed order — try the empty
//! schedule first (the failure may be environmental, e.g. a thread-table
//! cap), then drop stalls, then ddmin the injection decisions, then
//! halve the surviving parameters — and every replay is counted against
//! a budget so a stubborn case terminates with the best schedule found
//! so far rather than running forever.

use pcr::FaultSchedule;

use crate::case::StoredCase;
use crate::observe::{replay_schedule, TrialWorld};

/// Shrinker parameters.
#[derive(Clone, Debug)]
pub struct ShrinkConfig {
    /// Maximum number of oracle replays before stopping with the best
    /// schedule found so far.
    pub max_replays: u32,
}

/// What the shrinker did.
#[derive(Debug)]
pub struct ShrinkReport {
    /// The case with its schedule replaced by the minimized one (same
    /// signature, same trial parameters).
    pub case: StoredCase,
    /// Injection decisions before shrinking.
    pub original_decisions: usize,
    /// Stalls before shrinking.
    pub original_stalls: usize,
    /// Oracle replays spent.
    pub replays: u32,
    /// True when the replay budget ran out before the passes finished
    /// (the result is still valid, just possibly not locally minimal).
    pub exhausted: bool,
}

struct Oracle<'a> {
    case: &'a StoredCase,
    replays: u32,
    budget: u32,
}

impl Oracle<'_> {
    fn out_of_budget(&self) -> bool {
        self.replays >= self.budget
    }

    /// Does `candidate` still reproduce the original signature?
    /// Returns `None` when the budget is exhausted.
    fn accepts(&mut self, candidate: &FaultSchedule) -> Option<bool> {
        if self.out_of_budget() {
            return None;
        }
        self.replays += 1;
        let obs = replay_schedule(self.case, candidate);
        Some(obs.signature().as_deref() == Some(self.case.signature.as_str()))
    }
}

/// One ddmin-style reduction pass over the decision list: repeatedly try
/// removing chunks, refining granularity when nothing removable remains.
fn ddmin_decisions(cur: &mut FaultSchedule, oracle: &mut Oracle<'_>) {
    let mut chunks = 2usize;
    while cur.decisions.len() > 1 && chunks <= cur.decisions.len() {
        let chunk_len = cur.decisions.len().div_ceil(chunks);
        let mut removed_any = false;
        let mut start = 0;
        while start < cur.decisions.len() {
            let end = (start + chunk_len).min(cur.decisions.len());
            let mut candidate = cur.clone();
            candidate.decisions.drain(start..end);
            match oracle.accepts(&candidate) {
                None => return,
                Some(true) => {
                    *cur = candidate;
                    removed_any = true;
                    // Same start now addresses the next chunk.
                }
                Some(false) => start = end,
            }
        }
        if removed_any {
            chunks = chunks.saturating_sub(1).max(2);
        } else {
            chunks *= 2;
        }
    }
}

/// Halve a microsecond quantity toward 1, keeping each halving only if
/// the oracle still accepts it.
fn halve_param(
    cur: &mut FaultSchedule,
    oracle: &mut Oracle<'_>,
    read: impl Fn(&FaultSchedule) -> u64,
    write: impl Fn(&mut FaultSchedule, u64),
) {
    while read(cur) > 1 {
        let mut candidate = cur.clone();
        write(&mut candidate, read(cur) / 2);
        match oracle.accepts(&candidate) {
            Some(true) => *cur = candidate,
            _ => break,
        }
    }
}

/// Minimizes `case.schedule` while preserving its failure signature.
///
/// Returns `Err` if the original schedule does not reproduce the stored
/// signature (a corrupt or stale case file). `progress` receives a line
/// per completed pass.
pub fn shrink(
    case: &StoredCase,
    cfg: &ShrinkConfig,
    mut progress: impl FnMut(&str),
) -> Result<ShrinkReport, String> {
    let mut oracle = Oracle {
        case,
        replays: 0,
        budget: cfg.max_replays.max(2),
    };
    match oracle.accepts(&case.schedule) {
        Some(true) => {}
        _ => {
            return Err(format!(
                "schedule does not reproduce its stored signature {:?}",
                case.signature
            ))
        }
    }
    let mut cur = case.schedule.clone();

    // Fast paths: the failure may not need the schedule at all (an
    // environmental cap), or may need only the stalls / only the
    // decisions.
    for (label, candidate) in [
        ("empty schedule", FaultSchedule::default()),
        (
            "stalls only",
            FaultSchedule {
                decisions: Vec::new(),
                stalls: cur.stalls.clone(),
            },
        ),
        (
            "decisions only",
            FaultSchedule {
                decisions: cur.decisions.clone(),
                stalls: Vec::new(),
            },
        ),
    ] {
        let smaller = candidate.decisions.len() < cur.decisions.len()
            || candidate.stalls.len() < cur.stalls.len();
        if smaller && oracle.accepts(&candidate) == Some(true) {
            progress(&format!("{label} still reproduces"));
            cur = candidate;
            break;
        }
    }

    // Drop individual stalls.
    let mut i = 0;
    while i < cur.stalls.len() {
        let mut candidate = cur.clone();
        candidate.stalls.remove(i);
        match oracle.accepts(&candidate) {
            None => break,
            Some(true) => cur = candidate,
            Some(false) => i += 1,
        }
    }

    let before = cur.decisions.len();
    ddmin_decisions(&mut cur, &mut oracle);
    if cur.decisions.len() < before {
        progress(&format!(
            "ddmin: {before} -> {} decisions",
            cur.decisions.len()
        ));
    }

    // Halve surviving fault parameters (delays) and stall durations.
    for idx in 0..cur.decisions.len() {
        halve_param(
            &mut cur,
            &mut oracle,
            |s| s.decisions[idx].param_us,
            |s, v| s.decisions[idx].param_us = v,
        );
    }
    for idx in 0..cur.stalls.len() {
        halve_param(
            &mut cur,
            &mut oracle,
            |s| s.stalls[idx].duration.as_micros(),
            |s, v| s.stalls[idx].duration = pcr::SimDuration::from_micros(v),
        );
    }

    let exhausted = oracle.out_of_budget();
    progress(&format!(
        "minimized to {} decision(s), {} stall(s) in {} replays{}",
        cur.decisions.len(),
        cur.stalls.len(),
        oracle.replays,
        if exhausted { " (budget exhausted)" } else { "" }
    ));
    let mut minimized = case.clone();
    minimized.schedule = cur;
    Ok(ShrinkReport {
        case: minimized,
        original_decisions: case.schedule.decisions.len(),
        original_stalls: case.schedule.stalls.len(),
        replays: oracle.replays,
        exhausted,
    })
}

/// Why a stored failure happened, as [`cause`] works it out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cause {
    /// Faults injected on purpose: each kind without which it does not recur.
    Injected(Vec<&'static str>),
    /// The spec caps the thread table and a party is blocked in FORK (§5.4).
    ForkCap,
    /// A world built to fail: the mesh's AB-BA tellers, the §5.5 reader.
    Seeded,
    /// None of these: a failure somebody should read.
    Unexplained,
}

impl std::fmt::Display for Cause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cause::Injected(kinds) => write!(f, "injected:{}", kinds.join("+")),
            Cause::ForkCap => f.write_str("fork-cap"),
            Cause::Seeded => f.write_str("seeded"),
            Cause::Unexplained => f.write_str("unexplained"),
        }
    }
}

/// Works out why `case` failed by replaying it with only the faults
/// correct Mesa code must absorb (spurious wakeups, duplicated NOTIFYs,
/// timer jitter). A failure that still recurs is the world's; one that
/// does not is [`Cause::Injected`] with each removed kind whose removal
/// alone stops it, or all of them if none does alone.
pub fn cause(case: &StoredCase) -> Cause {
    let mut oracle = Oracle {
        case,
        replays: 0,
        budget: u32::MAX,
    };
    let s = &case.schedule;
    let without = |dropped: &[&str]| {
        let mut cut = s.clone();
        cut.decisions.retain(|d| !dropped.contains(&d.kind.tag()));
        if dropped.contains(&"stall") {
            cut.stalls.clear();
        }
        cut
    };
    let mut removed = vec!["stall", "fork_fail", "drop_notify", "priority_change"];
    removed.retain(|&k| without(&[k]) != *s);
    if removed.is_empty() || oracle.accepts(&without(&removed)) == Some(true) {
        let capped = case.spec.max_threads.is_some() && case.signature.contains("(fork)");
        return match case.spec.world {
            TrialWorld::MultiCore { .. } | TrialWorld::WeakMemory { .. } => Cause::Seeded,
            _ if capped => Cause::ForkCap,
            _ => Cause::Unexplained,
        };
    }
    let mut alone = removed.clone();
    alone.retain(|&k| oracle.accepts(&without(&[k])) == Some(false));
    Cause::Injected(if alone.is_empty() { removed } else { alone })
}
