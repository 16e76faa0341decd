//! Stored failing cases: the on-disk format of a fuzz finding.
//!
//! A [`StoredCase`] is everything needed to rebuild and replay one
//! failing trial — world, seed, watch parameters, and the exact
//! [`FaultSchedule`] the run executed — serialized as a single JSON
//! object via the repo's hand-rolled [`trace::Json`]. Files are named
//! after the signature so re-running the fuzzer overwrites rather than
//! accumulates duplicates of the same bug.

use std::fs;
use std::path::{Path, PathBuf};

use pcr::{
    FaultDecision, FaultSchedule, FaultSiteKind, PolicyKind, SimDuration, SimTime, StallSpec,
};
use trace::Json;
use workloads::{Benchmark, System};

use crate::observe::{TrialSpec, TrialWorld};

/// A replayable failing trial.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredCase {
    /// The trial: world, seed, watch parameters, thread cap, policy.
    /// Files written before the policy tournament carry no `"policy"`
    /// key and load as round-robin.
    pub spec: TrialSpec,
    /// Name of the intensity level that found the failure.
    pub intensity: String,
    /// The canonical failure signature the schedule reproduces.
    pub signature: String,
    /// The fault schedule to replay.
    pub schedule: FaultSchedule,
}

/// A benchmark by its name in any case (`keyboard`, `Scroll`): how a
/// case file and `--workload` name one.
pub fn benchmark_from_name(name: &str) -> Result<Benchmark, String> {
    Benchmark::CEDAR
        .iter()
        .copied()
        .find(|b| format!("{b:?}").eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown benchmark {name:?}"))
}

/// A system by its name in any case (`cedar`, `GVX`).
pub fn system_from_name(name: &str) -> Result<System, String> {
    match name.to_ascii_lowercase().as_str() {
        "cedar" => Ok(System::Cedar),
        "gvx" => Ok(System::Gvx),
        _ => Err(format!("unknown system {name:?} (cedar or gvx)")),
    }
}

impl StoredCase {
    /// Serializes the case to JSON.
    pub fn to_json(&self) -> Json {
        let decisions = Json::arr(self.schedule.decisions.iter().map(|d| {
            Json::obj([
                ("kind", Json::Str(d.kind.tag().to_string())),
                ("site", Json::UInt(d.site)),
                ("param_us", Json::UInt(d.param_us)),
            ])
        }));
        let stalls = Json::arr(self.schedule.stalls.iter().map(|s| {
            Json::obj([
                ("thread", Json::Str(s.thread.clone())),
                ("at_us", Json::UInt(s.at.as_micros())),
                ("duration_us", Json::UInt(s.duration.as_micros())),
                (
                    "while_holding",
                    s.while_holding
                        .as_ref()
                        .map_or(Json::Null, |m| Json::Str(m.clone())),
                ),
            ])
        }));
        let spec = &self.spec;
        let mut fields = vec![("v", Json::UInt(2)), ("world", Json::Str(spec.world.tag()))];
        if let TrialWorld::Cell { system, benchmark } = spec.world {
            fields.push(("system", Json::Str(system.name().to_string())));
            fields.push(("benchmark", Json::Str(benchmark.to_string())));
        }
        fields.extend([
            ("seed", Json::Str(format!("{:x}", spec.seed))),
            ("window_us", Json::UInt(spec.window.as_micros())),
            ("slice_us", Json::UInt(spec.slice.as_micros())),
            (
                "wedge_threshold_us",
                Json::UInt(spec.wedge_threshold.as_micros()),
            ),
            (
                "max_threads",
                spec.max_threads
                    .map_or(Json::Null, |n| Json::UInt(n as u64)),
            ),
            ("policy", Json::Str(spec.policy.as_str().to_string())),
            ("intensity", Json::Str(self.intensity.clone())),
            ("signature", Json::Str(self.signature.clone())),
            ("decisions", decisions),
            ("stalls", stalls),
        ]);
        Json::obj(fields)
    }

    /// Parses a case back from JSON. Files without `"policy"` ran
    /// round-robin, v1 files predate trial worlds (all are matrix cells),
    /// and older non-cell files' placeholder `"system"`/`"benchmark"`
    /// pair is ignored. A zero `slice_us` is refused: it never ends. So is
    /// a stall whose end, `at_us + duration_us`, is past the clock's.
    pub fn from_json(j: &Json) -> Result<StoredCase, String> {
        let tag = match j.u64_at("v")? {
            1 => "cell",
            2 => j.str_at("world")?,
            v => return Err(format!("unsupported case version {v}")),
        };
        let world = match tag {
            "cell" => TrialWorld::Cell {
                system: system_from_name(j.str_at("system")?)?,
                benchmark: benchmark_from_name(j.str_at("benchmark")?)?,
            },
            other => TrialWorld::from_tag(other)?,
        };
        let slice = SimDuration::from_micros(j.u64_at("slice_us")?);
        if slice.is_zero() {
            return Err("slice_us: must be positive, found 0".to_string());
        }
        let seed_hex = j.str_at("seed")?;
        let seed =
            u64::from_str_radix(seed_hex, 16).map_err(|e| format!("bad seed {seed_hex:?}: {e}"))?;
        let max_threads = match j.at("max_threads")? {
            Json::Null => None,
            _ => Some(j.u64_at("max_threads")? as usize),
        };
        let decisions = j.arr_at("decisions", |d| {
            let tag = d.str_at("kind")?;
            Ok(FaultDecision {
                kind: FaultSiteKind::from_tag(tag)
                    .ok_or_else(|| format!("unknown fault kind {tag:?}"))?,
                site: d.u64_at("site")?,
                param_us: d.u64_at("param_us")?,
            })
        })?;
        let stalls = j.arr_at("stalls", |s| {
            let (at_us, duration_us) = (s.u64_at("at_us")?, s.u64_at("duration_us")?);
            if at_us.checked_add(duration_us).is_none() {
                return Err(format!(
                    "duration_us: the stall ends past the clock's last microsecond \
                     ({at_us} + {duration_us})"
                ));
            }
            Ok(StallSpec {
                thread: s.str_at("thread")?.to_string(),
                at: SimTime::from_micros(at_us),
                duration: SimDuration::from_micros(duration_us),
                while_holding: s.opt_str_at("while_holding")?.map(str::to_string),
            })
        })?;
        Ok(StoredCase {
            spec: TrialSpec {
                world,
                seed,
                window: SimDuration::from_micros(j.u64_at("window_us")?),
                slice,
                wedge_threshold: SimDuration::from_micros(j.u64_at("wedge_threshold_us")?),
                max_threads,
                policy: j
                    .opt_str_at("policy")?
                    .map_or(Ok(PolicyKind::RoundRobin), str::parse)?,
            },
            intensity: j.str_at("intensity")?.to_string(),
            signature: j.str_at("signature")?.to_string(),
            schedule: FaultSchedule { decisions, stalls },
        })
    }

    /// A stable, filesystem-safe file name derived from the signature.
    ///
    /// The readable slug keeps only the first eight words of the
    /// signature, so an FNV-1a hash of the full signature is appended:
    /// two distinct signatures that share a slug prefix (a long
    /// multi-party wedge vs. its superset) must not overwrite each
    /// other's case files.
    pub fn file_name(&self) -> String {
        let slug: String = self
            .signature
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let slug: String = slug.split('-').filter(|s| !s.is_empty()).take(8).fold(
            String::new(),
            |mut acc, part| {
                if !acc.is_empty() {
                    acc.push('-');
                }
                acc.push_str(part);
                acc
            },
        );
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in self.signature.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        format!(
            "{}-{slug}-{:08x}.json",
            self.spec.world.file_prefix(),
            hash >> 32
        )
    }

    /// Writes the case into `dir` (created if needed) and returns the
    /// full path.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        fs::write(&path, self.to_json().pretty() + "\n")?;
        Ok(path)
    }

    /// Loads a case from a file written by [`StoredCase::save`].
    pub fn load(path: &Path) -> Result<StoredCase, String> {
        Json::load(path, StoredCase::from_json)
    }

    /// The case files of a corpus directory: every `*.json` under `dir`,
    /// sorted, so a corpus replays in the same order everywhere.
    pub fn corpus(dir: &Path) -> Result<Vec<PathBuf>, String> {
        let entries =
            fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// The ready-to-paste command that replays this case.
    pub fn repro_command(&self, path: &Path) -> String {
        format!(
            "cargo run --release -p bench --bin repro -- replay {}",
            path.display()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs};

    fn sample() -> StoredCase {
        StoredCase {
            spec: TrialSpec {
                world: TrialWorld::Cell {
                    system: System::Gvx,
                    benchmark: Benchmark::Scroll,
                },
                seed: 0xDEAD_BEEF,
                window: secs(6),
                slice: millis(250),
                wedge_threshold: millis(1500),
                max_threads: Some(23),
                policy: PolicyKind::RoundRobin,
            },
            intensity: "stall-gated".to_string(),
            signature: "wedge:[GVX.DisplayWatchdog(monitor)]".to_string(),
            schedule: FaultSchedule {
                decisions: vec![
                    FaultDecision {
                        kind: FaultSiteKind::SpuriousWakeup,
                        site: 4,
                        param_us: 120,
                    },
                    FaultDecision {
                        kind: FaultSiteKind::ForkFail,
                        site: 0,
                        param_us: 0,
                    },
                ],
                stalls: vec![StallSpec {
                    thread: "GVX.InputPoller".to_string(),
                    at: SimTime::from_micros(2_000_000),
                    duration: secs(120),
                    while_holding: Some("gvx-screen".to_string()),
                }],
            },
        }
    }

    /// Reads a case back from its text, as `repro replay` does.
    fn reparse(text: &str) -> StoredCase {
        StoredCase::from_json(&Json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let case = sample();
        assert_eq!(reparse(&case.to_json().pretty()), case);
    }

    #[test]
    fn non_default_policy_round_trips() {
        let mut case = sample();
        case.spec.policy = PolicyKind::Mlfq;
        let text = case.to_json().pretty();
        assert!(text.contains("\"policy\": \"mlfq\""), "{text}");
        let back = reparse(&text);
        assert_eq!(back.spec.policy, PolicyKind::Mlfq);
    }

    #[test]
    fn missing_policy_defaults_to_round_robin() {
        // Files from before the tournament have no "policy" key at all.
        let text = sample()
            .to_json()
            .pretty()
            .replace("\"policy\": \"rr\",", "");
        let back = reparse(&text);
        assert_eq!(back.spec.policy, PolicyKind::RoundRobin);
    }

    #[test]
    fn null_max_threads_and_while_holding_round_trip() {
        let mut case = sample();
        case.spec.max_threads = None;
        case.schedule.stalls[0].while_holding = None;
        let text = case.to_json().pretty();
        let back = reparse(&text);
        assert_eq!(back.spec.max_threads, None);
        assert_eq!(back.schedule.stalls[0].while_holding, None);
    }

    #[test]
    fn bad_inputs_error_clearly() {
        let missing = Json::parse("{\"v\": 1}").unwrap();
        let err = StoredCase::from_json(&missing).unwrap_err();
        assert!(err.contains("missing field"), "{err}");

        let bad_version = Json::parse("{\"v\": 9}").unwrap();
        let err = StoredCase::from_json(&bad_version).unwrap_err();
        assert!(err.contains("unsupported case version 9"), "{err}");
    }

    #[test]
    fn file_name_is_stable_and_safe() {
        let name = sample().file_name();
        assert_eq!(
            name,
            "gvx-scroll-wedge-GVX-DisplayWatchdog-monitor-7629c416.json"
        );
        assert!(name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.'));
    }

    #[test]
    fn shared_slug_prefixes_get_distinct_file_names() {
        let a = sample();
        let mut b = sample();
        // Same first eight slug words, different full signature.
        b.signature = "wedge:[GVX.DisplayWatchdog(monitor),GVX.InputPoller(cv)]".to_string();
        assert_ne!(a.file_name(), b.file_name());
    }

    /// `sample()` moved to `world`.
    fn in_world(world: TrialWorld) -> StoredCase {
        let mut case = sample();
        case.spec.world = world;
        case
    }

    #[test]
    fn world_prefixes_and_tags_round_trip() {
        let outage = workloads::serve::ServeScenario::Outage;
        for world in [
            TrialWorld::MultiCore { cpus: 2 },
            TrialWorld::WeakMemory { max_delay_us: 200 },
            TrialWorld::Serve {
                scenario: workloads::serve::ServeScenario::Burst,
            },
            TrialWorld::Serve { scenario: outage },
        ] {
            assert_eq!(TrialWorld::from_tag(&world.tag()).unwrap(), world);
            let text = in_world(world).to_json().pretty();
            assert!(!text.contains("\"system\""), "{text}");
            assert_eq!(reparse(&text).spec.world, world);
        }
        // A cell's tag does not name the cell: only a whole case does.
        assert_eq!(sample().spec.world.tag(), "cell");
        assert!(TrialWorld::from_tag("cell").is_err());
        assert!(TrialWorld::from_tag("marsrover").is_err());
        assert!(TrialWorld::from_tag("serve:quiet").is_err());
        let mp = in_world(TrialWorld::MultiCore { cpus: 2 }).file_name();
        assert!(mp.starts_with("mp2-wedge-GVX-"), "{mp}");
        let sv = in_world(TrialWorld::Serve { scenario: outage }).file_name();
        assert!(sv.starts_with("serve-outage-wedge-"), "{sv}");
    }

    #[test]
    fn files_an_older_writer_left_still_load() {
        // A v2 mesh case as writers before this format wrote it, with the
        // placeholder cell the mesh never read, and a v1 cell case from
        // before trial worlds and the policy tournament.
        let mesh = r#"{"v": 2, "world": "mp:2", "system": "Cedar", "benchmark": "Idle",
            "seed": "5eed", "window_us": 6000000, "slice_us": 250000,
            "wedge_threshold_us": 1500000, "max_threads": null, "policy": "rr",
            "intensity": "mp-mesh", "signature": "deadlock:[teller#(monitor)x4]",
            "decisions": [], "stalls": []}"#;
        let v1 = r#"{"v": 1, "system": "Cedar", "benchmark": "Keyboard", "seed": "5eed",
            "window_us": 6000000, "slice_us": 250000, "wedge_threshold_us": 1500000,
            "max_threads": 36, "intensity": "fork-cap",
            "signature": "wedge:[Cedar.Notifier(fork),Cedar.XServerWriter(fork)]",
            "decisions": [], "stalls": []}"#;
        let mesh = reparse(mesh);
        assert_eq!(mesh.spec.world, TrialWorld::MultiCore { cpus: 2 });
        let obs = crate::observe::replay(&mesh);
        assert_eq!(obs.signature().as_deref(), Some(mesh.signature.as_str()));
        let v1 = reparse(v1);
        let keyboard = TrialWorld::Cell {
            system: System::Cedar,
            benchmark: Benchmark::Keyboard,
        };
        assert_eq!(v1.spec.world, keyboard);
        assert_eq!(v1.spec.policy, PolicyKind::RoundRobin);
        assert_eq!(v1.spec.max_threads, Some(36));
    }
}
