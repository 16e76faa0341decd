//! Dynamic evidence for static findings: the replay side of
//! `repro lint --confirm`.
//!
//! The static analyzer names monitors by source binding; the runtime
//! names them by construction literal (`sim.monitor("gvx-screen", …)`),
//! often with instance numbers interpolated. This module replays a
//! stored fuzz corpus and distills each case into an [`Evidence`]
//! record whose names are normalized the same way the lint side
//! normalizes its literals (digit runs folded to `#`), so the join is
//! a plain set intersection.

use std::path::Path;

use crate::case::StoredCase;
use crate::observe::replay;
use crate::signature::normalize_name;

/// What one replayed corpus case proves.
#[derive(Clone, Debug)]
pub struct Evidence {
    /// File name of the stored case (not the full path).
    pub case_file: String,
    /// The signature the replay actually produced, if it failed.
    pub signature: Option<String>,
    /// Normalized resource names (monitors/CVs) the stranded threads
    /// were blocked on. Empty when the replay did not fail.
    pub resources: Vec<String>,
    /// Normalized bare thread names of the stranded parties, with the
    /// `(kind)` suffix stripped.
    pub parties: Vec<String>,
    /// Normalized names of every monitor the world had live — the
    /// "this lock exists and was exercised here" channel.
    pub monitors: Vec<String>,
}

fn strip_kind(party: &str) -> &str {
    party.split('(').next().unwrap_or(party)
}

/// Replays one stored case into evidence.
pub fn case_evidence(path: &Path) -> Result<Evidence, String> {
    let case = StoredCase::load(path)?;
    let obs = replay(&case);
    let mut resources = Vec::new();
    let mut parties = Vec::new();
    if let Some(f) = &obs.failure {
        resources = f.resources.iter().map(|r| normalize_name(r)).collect();
        parties = f
            .parties
            .iter()
            .map(|p| normalize_name(strip_kind(p)))
            .collect();
        resources.sort();
        resources.dedup();
        parties.sort();
        parties.dedup();
    }
    let mut monitors: Vec<String> = obs.monitors.iter().map(|m| normalize_name(m)).collect();
    monitors.sort();
    monitors.dedup();
    Ok(Evidence {
        case_file: path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default(),
        signature: obs.failure.as_ref().map(|f| f.signature()),
        resources,
        parties,
        monitors,
    })
}

/// Replays every `.json` case under `dir`, in sorted order, into
/// evidence records. Unreadable cases are errors — a corrupt corpus
/// must not silently weaken the precision report.
pub fn corpus_evidence(dir: &Path) -> Result<Vec<Evidence>, String> {
    StoredCase::corpus(dir)?
        .iter()
        .map(|p| case_evidence(p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{TrialSpec, TrialWorld};
    use pcr::FaultSchedule;

    #[test]
    fn party_kind_suffix_is_stripped_and_normalized() {
        assert_eq!(strip_kind("GVX.InputPoller(monitor)"), "GVX.InputPoller");
        assert_eq!(strip_kind("bare"), "bare");
        assert_eq!(normalize_name(strip_kind("window-3(monitor)")), "window-#");
    }

    #[test]
    fn corpus_evidence_round_trips_a_saved_case() {
        // Build a case for the multiprocessor ABBA world (its failure
        // is seed-deterministic with an empty schedule for seed 3), save
        // it, and distill evidence from the replay.
        let dir = std::env::temp_dir().join(format!("confirm-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut found = None;
        for seed in 0..64u64 {
            let spec = TrialSpec {
                world: TrialWorld::MultiCore { cpus: 2 },
                seed,
                window: pcr::secs(2),
                slice: pcr::millis(100),
                wedge_threshold: pcr::millis(400),
                max_threads: None,
                policy: pcr::PolicyKind::RoundRobin,
            };
            let obs = crate::observe::observe(&spec, pcr::ChaosConfig::none());
            if let Some(f) = &obs.failure {
                found = Some((spec, f.signature()));
                break;
            }
        }
        let (spec, signature) = found.expect("some seed deadlocks the teller mesh");
        let case = StoredCase {
            spec,
            intensity: "baseline".to_string(),
            signature: signature.clone(),
            schedule: FaultSchedule::default(),
        };
        case.save(&dir).unwrap();
        let ev = corpus_evidence(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].signature.as_deref(), Some(signature.as_str()));
        // The tellers deadlock on the account monitors: the resource
        // channel must carry their (normalized) names.
        assert!(
            ev[0].resources.iter().any(|r| r.contains("account")),
            "{:?}",
            ev[0]
        );
        assert!(
            ev[0].parties.iter().any(|p| p.starts_with("teller")),
            "{:?}",
            ev[0]
        );
    }
}
