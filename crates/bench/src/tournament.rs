//! The policy tournament behind `repro tournament`.
//!
//! Runs the full Cedar/GVX benchmark matrix (or a slice of it) under
//! every scheduling policy ([`pcr::PolicyKind`]) and compares the
//! per-priority wakeup-to-run latency histograms and per-monitor
//! contention profiles across policies. Each `(cell, policy)` run is an
//! independent deterministic simulation, so the whole grid parallelizes
//! through the host executor and every worker count produces
//! identical results.
//!
//! A cell that deadlocks under some policy is recorded as a failure
//! rather than a panic: the tournament's acceptance gate is that every
//! policy completes every cell deadlock-free (`repro tournament` exits
//! [`crate::exit::DEADLOCK`] otherwise). The methodology and how to read
//! the output are documented in `docs/SCHEDULING.md`; the §6.2
//! walkthrough is experiment E16 in `EXPERIMENTS.md`.

use std::path::{Path, PathBuf};

use pcr::{secs, PolicyKind, RunLimit, SimDuration};
use trace::{Json, Table};
use workloads::{build_chaos_with, harvest, BenchResult, Benchmark, System};

use crate::executor::{run_indexed, Reporter};
use crate::tables::{matrix, profile_json};

/// Parameters for one tournament run.
#[derive(Clone, Debug)]
pub struct TournamentOpts {
    /// Virtual measurement window per `(cell, policy)` run.
    pub window: SimDuration,
    /// Seed every run starts from.
    pub seed: u64,
    /// Worker threads for the grid (1 = serial; results are identical at
    /// every worker count).
    pub workers: usize,
    /// The matrix cells to race. Defaults to all twelve.
    pub cells: Vec<(System, Benchmark)>,
    /// The policies in the running. Defaults to [`PolicyKind::ALL`].
    pub policies: Vec<PolicyKind>,
    /// When set, a Chrome trace-event file (for `ui.perfetto.dev`) is
    /// written per `(cell, policy)` into this directory, from a replay of
    /// the same deterministic run.
    pub trace_dir: Option<PathBuf>,
}

impl TournamentOpts {
    /// The full tournament: every matrix cell x every policy.
    pub fn new(window: SimDuration, seed: u64, workers: usize) -> TournamentOpts {
        TournamentOpts {
            window,
            seed,
            workers,
            cells: matrix(),
            policies: PolicyKind::ALL.to_vec(),
            trace_dir: None,
        }
    }

    /// Restricts the matrix to the two reference cells (Cedar/Keyboard
    /// and GVX/Scroll) — the CI smoke slice.
    pub fn reference_cells(mut self) -> TournamentOpts {
        self.cells = vec![
            (System::Cedar, Benchmark::Keyboard),
            (System::Gvx, Benchmark::Scroll),
        ];
        self
    }
}

/// One `(cell, policy)` run of the tournament.
#[derive(Debug)]
pub struct TournamentEntry {
    /// Which system ran.
    pub system: System,
    /// Which benchmark ran.
    pub benchmark: Benchmark,
    /// Which policy dispatched it.
    pub policy: PolicyKind,
    /// The measurements, or the deadlock description when the cell did
    /// not survive this policy.
    pub outcome: Result<BenchResult, String>,
    /// Where the Chrome trace landed, when one was requested.
    pub trace_path: Option<PathBuf>,
}

impl TournamentEntry {
    /// `"Cedar/Keyboard"`-style cell label.
    pub fn cell_label(&self) -> String {
        format!("{}/{:?}", self.system.name(), self.benchmark)
    }
}

/// A finished tournament: every `(cell, policy)` entry in grid order
/// (cells outermost, policies innermost).
#[derive(Debug)]
pub struct TournamentReport {
    /// Measurement window each entry ran.
    pub window: SimDuration,
    /// Seed each entry ran from.
    pub seed: u64,
    /// The policies raced, in column order.
    pub policies: Vec<PolicyKind>,
    /// All entries.
    pub entries: Vec<TournamentEntry>,
}

/// Runs one matrix cell under `policy` without panicking on deadlock —
/// the tournament's per-entry unit. Mirrors
/// [`workloads::run_benchmark_policy`] (2 s warm-up, then the window)
/// but returns the deadlock as an error so a losing policy is reported
/// instead of aborting the grid.
pub fn run_cell(
    system: System,
    benchmark: Benchmark,
    window: SimDuration,
    seed: u64,
    policy: PolicyKind,
) -> Result<BenchResult, String> {
    let mut sim = build_chaos_with(system, benchmark, seed, pcr::ChaosConfig::none(), |cfg| {
        cfg.with_policy(policy)
    });
    let warmup = sim.run(RunLimit::For(secs(2)));
    if warmup.deadlocked() {
        return Err(format!("deadlocked during warm-up: {:?}", warmup.reason));
    }
    let start_stats = sim.stats().clone();
    let start_alloc = sim.alloc_counters();
    sim.set_sink(Box::new(trace::Collector::for_sim(&sim)));
    let report = sim.run(RunLimit::For(window));
    if report.deadlocked() {
        return Err(format!(
            "deadlocked during measurement: {:?}",
            report.reason
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

/// Replays one `(cell, policy)` run with an event recorder attached and
/// writes it as a Chrome trace-event file under `dir`. The sink does not
/// influence scheduling, so the trace is byte-faithful to the measured
/// run (warm-up included).
fn write_cell_trace(
    dir: &Path,
    system: System,
    benchmark: Benchmark,
    window: SimDuration,
    seed: u64,
    policy: PolicyKind,
) -> Result<PathBuf, String> {
    let mut sim = build_chaos_with(system, benchmark, seed, pcr::ChaosConfig::none(), |cfg| {
        cfg.with_policy(policy)
    });
    sim.set_sink(Box::new(pcr::VecSink::default()));
    let _ = sim.run(RunLimit::For(secs(2) + window));
    let labels = trace::TraceLabels::from_sim(&sim);
    let events = trace::take_collector::<pcr::VecSink>(&mut sim)
        .expect("vec sink present")
        .events;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-{}-{}.trace.json",
        system.name().to_ascii_lowercase(),
        format!("{benchmark:?}").to_ascii_lowercase(),
        policy
    ));
    let f = std::fs::File::create(&path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    trace::write_chrome(&events, &labels, std::io::BufWriter::new(f))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Runs the whole grid. Entries come back in grid order regardless of
/// worker count.
pub fn run_tournament(opts: &TournamentOpts) -> TournamentReport {
    let jobs: Vec<(System, Benchmark, PolicyKind)> = opts
        .cells
        .iter()
        .flat_map(|&(sys, b)| opts.policies.iter().map(move |&p| (sys, b, p)))
        .collect();
    let reporter = Reporter::new();
    let (entries, _) = run_indexed(opts.workers.max(1), jobs.len(), |i| {
        let (system, benchmark, policy) = jobs[i];
        reporter.line(&format!(
            "  tournament: {}/{benchmark:?} under {policy} ...",
            system.name()
        ));
        let outcome = run_cell(system, benchmark, opts.window, opts.seed, policy);
        let trace_path = match (&opts.trace_dir, &outcome) {
            (Some(dir), Ok(_)) => {
                match write_cell_trace(dir, system, benchmark, opts.window, opts.seed, policy) {
                    Ok(p) => Some(p),
                    Err(e) => {
                        reporter.line(&format!("  tournament: trace export failed: {e}"));
                        None
                    }
                }
            }
            _ => None,
        };
        TournamentEntry {
            system,
            benchmark,
            policy,
            outcome,
            trace_path,
        }
    });
    TournamentReport {
        window: opts.window,
        seed: opts.seed,
        policies: opts.policies.clone(),
        entries,
    }
}

impl TournamentReport {
    /// The entries that did not complete their cell, in grid order.
    pub fn failures(&self) -> Vec<&TournamentEntry> {
        self.entries.iter().filter(|e| e.outcome.is_err()).collect()
    }

    /// The grid as one comparison table: a row per `(cell, policy)` with
    /// the headline rates, contention share, and worst wakeup-to-run
    /// latency.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(
            "Policy tournament (per-cell headline comparison)",
            &[
                "Cell",
                "Policy",
                "Switches/sec",
                "%contended",
                "Worst wait (us)",
                "Status",
            ],
        );
        for e in &self.entries {
            match &e.outcome {
                Ok(r) => {
                    let levels = r.sched_latency.levels.iter();
                    let worst_wait = levels.map(|h| h.max_us()).max().unwrap_or(0);
                    t.row(vec![
                        e.cell_label(),
                        e.policy.to_string(),
                        trace::f0(r.rates.switches_per_sec),
                        format!("{:.3}%", r.rates.contention_pct),
                        worst_wait.to_string(),
                        "ok".to_string(),
                    ]);
                }
                Err(msg) => {
                    t.row(vec![
                        e.cell_label(),
                        e.policy.to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        format!("FAIL: {msg}"),
                    ]);
                }
            }
        }
        t
    }

    /// Per-priority mean/max wakeup-to-run latency for one cell, one
    /// column pair per policy — the §6.2 comparison the tournament
    /// exists for. Rows cover every priority any policy dispatched.
    pub fn latency_comparison(&self, system: System, benchmark: Benchmark) -> Table {
        let mut header = vec!["Priority".to_string()];
        for p in &self.policies {
            header.push(format!("{p} mean us"));
            header.push(format!("{p} max us"));
        }
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            &format!(
                "Wakeup-to-run latency by priority — {}/{benchmark:?}",
                system.name()
            ),
            &header_refs,
        );
        let cell_entries: Vec<&TournamentEntry> = self
            .entries
            .iter()
            .filter(|e| e.system == system && e.benchmark == benchmark)
            .collect();
        for prio in 0..7 {
            let active = cell_entries.iter().any(|e| {
                e.outcome
                    .as_ref()
                    .is_ok_and(|r| r.sched_latency.levels[prio].count() > 0)
            });
            if !active {
                continue;
            }
            let mut row = vec![format!("P{}", prio + 1)];
            for policy in &self.policies {
                let entry = cell_entries.iter().find(|e| e.policy == *policy);
                match entry.map(|e| e.outcome.as_ref()) {
                    Some(Ok(r)) if r.sched_latency.levels[prio].count() > 0 => {
                        let mean = r.sched_latency.mean_wait(prio).map_or(0, |d| d.as_micros());
                        row.push(mean.to_string());
                        row.push(r.sched_latency.levels[prio].max_us().to_string());
                    }
                    _ => {
                        row.push("-".to_string());
                        row.push("-".to_string());
                    }
                }
            }
            t.row(row);
        }
        t
    }

    /// The machine-readable comparison (`threadstudy-tournament-v1`):
    /// per cell, per policy, the headline rates plus the full
    /// [`crate::tables::profile_json`] profile (per-monitor contention
    /// and the per-priority log2-us latency histograms).
    pub fn to_json(&self) -> Json {
        let mut cells: Vec<(System, Benchmark)> = Vec::new();
        for e in &self.entries {
            if !cells.contains(&(e.system, e.benchmark)) {
                cells.push((e.system, e.benchmark));
            }
        }
        let cell_objs = cells.iter().map(|&(system, benchmark)| {
            let policies = self
                .entries
                .iter()
                .filter(|e| e.system == system && e.benchmark == benchmark)
                .map(|e| match &e.outcome {
                    Ok(r) => Json::obj([
                        ("policy", Json::from(e.policy.as_str())),
                        ("ok", Json::Bool(true)),
                        ("switches_per_sec", Json::from(r.rates.switches_per_sec)),
                        ("waits_per_sec", Json::from(r.rates.waits_per_sec)),
                        ("ml_enters_per_sec", Json::from(r.rates.ml_enters_per_sec)),
                        ("contention_pct", Json::from(r.rates.contention_pct)),
                        ("event_volume", Json::from(r.event_volume)),
                        (
                            "cpu_by_priority_us",
                            Json::from(
                                r.cpu_by_priority
                                    .iter()
                                    .map(|d| d.as_micros())
                                    .collect::<Vec<_>>(),
                            ),
                        ),
                        ("profile", profile_json(&r.contention, &r.sched_latency)),
                        (
                            "trace",
                            e.trace_path
                                .as_ref()
                                .map_or(Json::Null, |p| Json::from(p.display().to_string())),
                        ),
                    ]),
                    Err(msg) => Json::obj([
                        ("policy", Json::from(e.policy.as_str())),
                        ("ok", Json::Bool(false)),
                        ("error", Json::from(msg.as_str())),
                    ]),
                });
            Json::obj([
                ("system", Json::from(system.name())),
                ("benchmark", Json::from(format!("{benchmark:?}"))),
                ("policies", Json::arr(policies)),
            ])
        });
        Json::obj([
            ("schema", Json::from("threadstudy-tournament-v1")),
            ("window_us", Json::from(self.window.as_micros())),
            ("seed", Json::from(format!("{:#x}", self.seed))),
            (
                "policies",
                Json::arr(self.policies.iter().map(|p| Json::from(p.as_str()))),
            ),
            ("cells", Json::arr(cell_objs)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_slice_is_the_two_profile_cells() {
        let opts = TournamentOpts::new(secs(1), 1, 1).reference_cells();
        assert_eq!(
            opts.cells,
            vec![
                (System::Cedar, Benchmark::Keyboard),
                (System::Gvx, Benchmark::Scroll)
            ]
        );
        assert_eq!(opts.policies, PolicyKind::ALL.to_vec());
    }

    #[test]
    fn json_reports_failures_as_not_ok() {
        let report = TournamentReport {
            window: secs(1),
            seed: 7,
            policies: vec![PolicyKind::RoundRobin],
            entries: vec![TournamentEntry {
                system: System::Cedar,
                benchmark: Benchmark::Idle,
                policy: PolicyKind::RoundRobin,
                outcome: Err("deadlocked during warm-up: ...".to_string()),
                trace_path: None,
            }],
        };
        let j = report.to_json();
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("threadstudy-tournament-v1")
        );
        let cell = &j.get("cells").unwrap().as_array().unwrap()[0];
        let pol = &cell.get("policies").unwrap().as_array().unwrap()[0];
        assert_eq!(pol.get("ok").and_then(Json::as_bool), Some(false));
        assert!(pol.get("error").is_some());
        assert_eq!(report.failures().len(), 1);
    }
}
