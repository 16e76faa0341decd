//! The `repro` subcommands backed by the `resilience` crate:
//! `fuzz` (grid or `--guided`), `shrink`, `replay` (one case or
//! `--all DIR`), and `chaos --recover`.
//!
//! Each function returns an exit code from [`crate::exit`]; `main`
//! accumulates the worst one.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pcr::{secs, ChaosConfig};
use resilience::{
    benchmark_from_name, cause, fuzz_with, guided_fuzz, ladder, observe, replay, shrink,
    signatures_per_cpu_minute, supervise, supervise_benchmark, system_from_name,
    unsupervised_wedges, Cause, FoundCase, FuzzConfig, MutationDiscovery, Observation,
    RecoveryKind, ShrinkConfig, StoredCase, Supervision, SupervisorConfig, TrialSpec, TrialWorld,
};
use threadstudy_core::System;
use trace::Table;
use workloads::Benchmark;

use crate::exit;
use crate::tables::REFERENCE_CELLS;

/// Parses a `--workload SYSTEM/BENCHMARK` filter ("cedar/keyboard",
/// "gvx/scroll").
pub fn parse_workload(arg: &str) -> Result<(System, Benchmark), String> {
    let (sys, bench) = arg.split_once('/').ok_or("expected SYSTEM/BENCHMARK")?;
    let (system, benchmark) = (system_from_name(sys)?, benchmark_from_name(bench)?);
    if !Benchmark::suite(system).contains(&benchmark) {
        return Err(format!("{} does not run {benchmark:?}", system.name()));
    }
    Ok((system, benchmark))
}

/// Options for `repro fuzz`.
pub struct FuzzOpts {
    /// Trial budget.
    pub budget: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Optional single-cell restriction.
    pub workload: Option<(System, Benchmark)>,
    /// Where to store failing cases.
    pub out_dir: PathBuf,
    /// Per-trial window override (seconds).
    pub window_secs: Option<u64>,
    /// Run the coverage-guided fuzzer instead of the plain grid.
    pub guided: bool,
    /// With `guided`: also run the plain grid on the same budget and
    /// fail with [`exit::REGRESSION`] if guided found fewer signatures.
    pub compare_grid: bool,
    /// Optional wall-clock cap per sweep, in milliseconds.
    pub wall_budget_ms: Option<u64>,
    /// Write a JSON stats artifact (signatures per CPU-minute etc.).
    pub stats: Option<PathBuf>,
    /// Worker threads for grid sweeps (1 = serial). Signatures are the same
    /// at every worker count unless `wall_budget_ms` cuts the sweep short.
    /// The guided fuzzer is inherently sequential (each mutation depends
    /// on earlier outcomes) and ignores this.
    pub workers: usize,
    /// Scheduling policy every trial runs under (`--policy`).
    pub policy: pcr::PolicyKind,
}

/// `repro fuzz`: sweep the chaos grid (or, with `--guided`, run the
/// coverage-guided mutation search), store unique failures, and work out
/// each one's cause: an unexplained one exits [`exit::UNEXPLAINED`].
pub fn fuzz_cmd(opts: &FuzzOpts) -> i32 {
    let mut cfg = FuzzConfig {
        budget: opts.budget,
        base_seed: opts.base_seed,
        wall_budget_ms: opts.wall_budget_ms,
        policy: opts.policy,
        ..FuzzConfig::default()
    };
    if let Some((system, benchmark)) = opts.workload {
        cfg.cells = vec![TrialWorld::Cell { system, benchmark }];
    }
    if let Some(w) = opts.window_secs {
        cfg.window = secs(w);
    }
    let started = std::time::Instant::now();
    let mode = if opts.guided { "guided" } else { "grid" };
    let workers = opts.workers.max(1);
    // Grid sweeps route every batch of trials through the host
    // executor; trial results are processed in grid order inside
    // `fuzz_with`, so the signature set is worker-count-independent.
    let mut grid_runner = |batch: &[(TrialSpec, ChaosConfig)]| -> Vec<Observation> {
        let (obs, _) = crate::executor::run_indexed(workers, batch.len(), |i| {
            let (spec, chaos) = &batch[i];
            observe(spec, chaos.clone())
        });
        obs
    };
    let (trials, failures, cases, discoveries): (u32, u32, Vec<FoundCase>, Vec<MutationDiscovery>) =
        if opts.guided {
            let o = guided_fuzz(&cfg, |line| eprintln!("{line}"));
            (o.trials, o.failures, o.cases, o.mutation_discoveries)
        } else {
            let o = fuzz_with(&cfg, |line| eprintln!("{line}"), workers, &mut grid_runner);
            (o.trials, o.failures, o.cases, Vec::new())
        };
    let wall = started.elapsed();
    let fuzz_workers = if opts.guided { 1 } else { workers };
    let per_minute = signatures_per_cpu_minute(cases.len(), wall, fuzz_workers);
    println!(
        "fuzz[{mode}]: {} trial(s), {} failure(s), {} unique signature(s) in {:.1}s ({:.1} signatures/cpu-minute, {fuzz_workers} worker(s))",
        trials,
        failures,
        cases.len(),
        wall.as_secs_f64(),
        per_minute,
    );
    for d in &discoveries {
        println!(
            "  mutation discovery: {} via {} (parent {})",
            d.signature, d.mutation, d.parent
        );
    }
    let mut code = exit::OK;
    let mut table = Table::new(
        "unique failures",
        &[
            "signature",
            "count",
            "cause",
            "cell",
            "intensity",
            "decisions",
            "file",
        ],
    );
    let causes: Vec<Cause> = cases.iter().map(|found| cause(&found.case)).collect();
    for (found, cause) in cases.iter().zip(&causes) {
        let case = &found.case;
        let path = match case.save(&opts.out_dir) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("FAIL fuzz: cannot store case: {e}");
                return exit::worst(code, exit::IO);
            }
        };
        table.row(vec![
            case.signature.clone(),
            found.count.to_string(),
            cause.to_string(),
            case.spec.world.label(),
            case.intensity.clone(),
            case.schedule.decisions.len().to_string(),
            path.display().to_string(),
        ]);
    }
    if !table.is_empty() {
        println!("{}", table.to_text());
    }
    let mut per_cause = BTreeMap::<String, u64>::new();
    for (found, cause) in cases.iter().zip(&causes) {
        *per_cause.entry(cause.to_string()).or_default() += 1;
        if *cause == Cause::Unexplained {
            eprintln!("FAIL fuzz: unexplained failure {}", found.case.signature);
            let detail = replay(&found.case).failure.map(|f| f.detail);
            println!("{}", detail.unwrap_or_default());
            code = exit::worst(code, exit::UNEXPLAINED);
        }
    }
    let per_cause = trace::Json::Obj(per_cause.into_iter().map(|(c, n)| (c, n.into())).collect());
    let mut stats_fields = vec![
        ("mode", trace::Json::Str(mode.to_string())),
        ("workers", trace::Json::UInt(fuzz_workers as u64)),
        ("trials", trace::Json::UInt(u64::from(trials))),
        ("failures", trace::Json::UInt(u64::from(failures))),
        ("distinct_signatures", trace::Json::UInt(cases.len() as u64)),
        ("wall_ms", trace::Json::UInt(wall.as_millis() as u64)),
        ("signatures_per_cpu_minute", trace::Json::Float(per_minute)),
        (
            "mutation_discoveries",
            trace::Json::UInt(discoveries.len() as u64),
        ),
        (
            "signatures",
            trace::Json::arr(
                cases
                    .iter()
                    .map(|c| trace::Json::Str(c.case.signature.clone())),
            ),
        ),
        ("causes", per_cause),
    ];
    if opts.compare_grid {
        let grid_started = std::time::Instant::now();
        let grid = fuzz_with(&cfg, |line| eprintln!("{line}"), workers, &mut grid_runner);
        let grid_wall = grid_started.elapsed();
        let grid_per_minute = signatures_per_cpu_minute(grid.cases.len(), grid_wall, workers);
        println!(
            "fuzz[grid comparison]: {} trial(s), {} unique signature(s) in {:.1}s ({:.1} signatures/cpu-minute)",
            grid.trials,
            grid.cases.len(),
            grid_wall.as_secs_f64(),
            grid_per_minute
        );
        stats_fields.push(("grid_trials", trace::Json::UInt(u64::from(grid.trials))));
        stats_fields.push((
            "grid_distinct_signatures",
            trace::Json::UInt(grid.cases.len() as u64),
        ));
        stats_fields.push((
            "grid_signatures_per_cpu_minute",
            trace::Json::Float(grid_per_minute),
        ));
        if cases.len() < grid.cases.len() {
            eprintln!(
                "FAIL fuzz: guided found {} signature(s), grid found {} on the same budget",
                cases.len(),
                grid.cases.len()
            );
            code = exit::worst(code, exit::REGRESSION);
        } else {
            println!(
                "guided covers {} signature(s) vs grid's {} on the same budget",
                cases.len(),
                grid.cases.len()
            );
        }
    }
    if let Some(stats_path) = &opts.stats {
        let doc = trace::Json::obj(stats_fields);
        code = exit::worst(code, exit::write(stats_path, doc.pretty() + "\n"));
    }
    code
}

/// `repro shrink FILE`: minimize a stored failing schedule.
pub fn shrink_cmd(path: &Path, max_replays: u32) -> i32 {
    let case = match StoredCase::load(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("FAIL shrink: {e}");
            return exit::IO;
        }
    };
    let report = match shrink(&case, &ShrinkConfig { max_replays }, |line| {
        eprintln!("{line}")
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL shrink: {e}");
            return exit::REGRESSION;
        }
    };
    let min_path = path.with_extension("min.json");
    if exit::write(&min_path, report.case.to_json().pretty() + "\n") != exit::OK {
        return exit::IO;
    }
    println!(
        "shrink: {} -> {} decision(s), {} -> {} stall(s), {} replay(s){}",
        report.original_decisions,
        report.case.schedule.decisions.len(),
        report.original_stalls,
        report.case.schedule.stalls.len(),
        report.replays,
        if report.exhausted {
            " (budget exhausted)"
        } else {
            ""
        }
    );
    println!("signature: {}", report.case.signature);
    println!("repro: {}", report.case.repro_command(&min_path));
    exit::OK
}

/// `repro replay FILE`: replay a stored case and check it still
/// reproduces its signature.
pub fn replay_cmd(path: &Path) -> i32 {
    let case = match StoredCase::load(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("FAIL replay: {e}");
            return exit::IO;
        }
    };
    let obs = replay(&case);
    match obs.failure {
        Some(failure) => {
            let sig = failure.signature();
            println!(
                "replay: {} seed={:x} failed after {} with {sig}",
                case.spec.world.label(),
                case.spec.seed,
                obs.elapsed
            );
            if !failure.detail.is_empty() {
                println!("{}", failure.detail);
            }
            if sig == case.signature {
                println!("replay: signature reproduced");
                exit::OK
            } else {
                eprintln!(
                    "FAIL replay: signature changed (stored {:?})",
                    case.signature
                );
                exit::REGRESSION
            }
        }
        None => {
            eprintln!(
                "FAIL replay: no failure within {} (stored signature {:?})",
                case.spec.window, case.signature
            );
            exit::REGRESSION
        }
    }
}

/// `repro replay --all DIR`: replay every stored case under `DIR` in
/// sorted order — the corpus regression suite. The worst per-case exit
/// code wins.
pub fn replay_all_cmd(dir: &Path) -> i32 {
    let paths = match StoredCase::corpus(dir) {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("FAIL replay --all: {e}");
            return exit::IO;
        }
    };
    if paths.is_empty() {
        eprintln!("FAIL replay --all: no .json cases under {}", dir.display());
        return exit::IO;
    }
    let mut code = exit::OK;
    let mut reproduced = 0usize;
    for path in &paths {
        println!("--- {}", path.display());
        let one = replay_cmd(path);
        if one == exit::OK {
            reproduced += 1;
        }
        code = exit::worst(code, one);
    }
    println!(
        "replay --all: {reproduced}/{} case(s) reproduced their signature",
        paths.len()
    );
    code
}

/// Logs `label`'s recovery actions to stderr and returns their tags,
/// comma-joined, for the table and the JSON.
fn recoveries(label: &str, sup: &Supervision) -> String {
    for a in &sup.actions {
        let (attempt, at, tag) = (a.attempt, a.at, a.kind.tag());
        eprintln!("{label}: attempt {attempt} at {at}: {tag} ({})", a.detail);
    }
    let tags: Vec<&str> = sup.actions.iter().map(|a| a.kind.tag()).collect();
    tags.join(", ")
}

/// The §6.2 inversion cell of `repro chaos --recover`: the magnified
/// metalock world with donation and daemon both off wedges stably; the
/// supervisor must resolve it with the runtime remedies (donation
/// toggle, priority boost) and WITHOUT a restart.
fn recover_inversion_cell(
    cfg: &SupervisorConfig,
    table: &mut Table,
    json_rows: &mut Vec<trace::Json>,
) -> i32 {
    let label = "xpipe/MetalockInversion".to_string();
    let mut code = exit::OK;
    let wedged = unsupervised_wedges(xpipe::inversion::build_metalock_world(false, false).0, cfg);
    if !wedged {
        eprintln!("FAIL recover {label}: the inversion did not wedge the unsupervised run");
        code = exit::worst(code, exit::REGRESSION);
    }
    let (sup, _sim) = supervise(
        |_| xpipe::inversion::build_metalock_world(false, false).0,
        cfg,
    );
    let recoveries = recoveries(&label, &sup);
    let remedied = sup.actions.iter().any(|a| {
        matches!(
            a.kind,
            RecoveryKind::EnableMetalockDonation | RecoveryKind::PriorityBoost
        )
    });
    if sup.restarts > 0 || sup.gave_up || !remedied || !sup.healthy_at_end {
        eprintln!(
            "FAIL recover {label}: expected a restart-free §6.2 recovery (restarts={}, gave_up={}, healthy={})",
            sup.restarts, sup.gave_up, sup.healthy_at_end
        );
        code = exit::worst(code, exit::DEADLOCK);
    }
    table.row(vec![
        label.clone(),
        if wedged { "wedges" } else { "survives" }.to_string(),
        sup.attempts.to_string(),
        if recoveries.is_empty() {
            "-".to_string()
        } else {
            recoveries.clone()
        },
        "-".to_string(),
    ]);
    json_rows.push(trace::Json::obj([
        ("cell", trace::Json::Str(label)),
        ("unsupervised_wedges", trace::Json::Bool(wedged)),
        ("attempts", trace::Json::UInt(u64::from(sup.attempts))),
        ("restarts", trace::Json::UInt(u64::from(sup.restarts))),
        ("recoveries", trace::Json::Str(recoveries)),
        ("healthy_at_end", trace::Json::Bool(sup.healthy_at_end)),
    ]));
    code
}

/// `repro chaos --recover`: for each demo cell, show that the fault
/// load wedges the unsupervised run, then run it supervised and report
/// the recovery actions and degradation score.
pub fn recover_cmd(window: pcr::SimDuration, seed: u64, json_path: Option<&str>) -> i32 {
    let cfg = SupervisorConfig::for_window(window);
    let mut code = exit::OK;
    let mut table = Table::new(
        "supervised recovery",
        &[
            "cell",
            "unsupervised",
            "attempts",
            "recoveries",
            "degradation",
        ],
    );
    let mut json_rows = Vec::new();
    // Each demo cell's fault load is the rung of its fuzz ladder that the
    // world is known not to tolerate on its own.
    let rungs = ["fork-cap", "stall-gated"];
    for ((system, benchmark), rung) in REFERENCE_CELLS.into_iter().zip(rungs) {
        let world = TrialWorld::Cell { system, benchmark };
        let label = world.label();
        let rung = ladder(world)
            .into_iter()
            .find(|r| r.name == rung)
            .expect("the demo rung is on the cell's ladder");
        let spec = TrialSpec {
            world,
            seed,
            window: cfg.window,
            slice: cfg.slice,
            wedge_threshold: cfg.wedge_threshold,
            max_threads: rung.max_threads,
            policy: pcr::PolicyKind::RoundRobin,
        };
        let wedged = unsupervised_wedges(spec.build(rung.chaos.clone()), &cfg);
        if !wedged {
            eprintln!("FAIL recover {label}: fault load did not wedge the unsupervised run");
            code = exit::worst(code, exit::REGRESSION);
        }
        let sup = supervise_benchmark(&spec, rung.chaos, &cfg);
        let recoveries = recoveries(&label, &sup.supervision);
        let degradation = sup.degradation;
        if sup.supervision.gave_up || degradation <= 0.0 {
            eprintln!("FAIL recover {label}: supervisor could not keep the world productive");
            code = exit::worst(code, exit::DEADLOCK);
        }
        table.row(vec![
            label.clone(),
            if wedged { "wedges" } else { "survives" }.to_string(),
            sup.supervision.attempts.to_string(),
            if recoveries.is_empty() {
                "-".to_string()
            } else {
                recoveries.clone()
            },
            format!("{degradation:.3}"),
        ]);
        json_rows.push(trace::Json::obj([
            ("cell", trace::Json::Str(label)),
            ("unsupervised_wedges", trace::Json::Bool(wedged)),
            (
                "attempts",
                trace::Json::UInt(u64::from(sup.supervision.attempts)),
            ),
            ("recoveries", trace::Json::Str(recoveries)),
            ("degradation", trace::Json::Float(degradation)),
            ("clean_volume", trace::Json::UInt(sup.clean_volume)),
            (
                "supervised_volume",
                trace::Json::UInt(sup.supervision.total_volume),
            ),
        ]));
    }
    code = exit::worst(
        code,
        recover_inversion_cell(&cfg, &mut table, &mut json_rows),
    );
    println!("{}", table.to_text());
    if let Some(path) = json_path {
        let doc = trace::Json::obj([("recover", trace::Json::arr(json_rows))]);
        code = exit::worst(code, exit::write(path, doc.pretty()));
    }
    code
}

/// `repro diff --schedule FILE` support: names the injected fault sites
/// a stored schedule contributes, correlated with the diff's chaos
/// event kinds.
pub fn describe_schedule(path: &Path) -> Result<String, String> {
    let case = StoredCase::load(path)?;
    let mut out = String::new();
    out.push_str(&format!(
        "schedule {}: {} seed={:x}, {} decision(s), {} stall(s)\n",
        path.display(),
        case.spec.world.label(),
        case.spec.seed,
        case.schedule.decisions.len(),
        case.schedule.stalls.len()
    ));
    let mut per_kind: std::collections::BTreeMap<&str, (usize, u64)> = Default::default();
    for d in &case.schedule.decisions {
        let entry = per_kind.entry(d.kind.tag()).or_default();
        entry.0 += 1;
        entry.1 = entry.1.max(d.param_us);
    }
    for (tag, (count, max_param)) in per_kind {
        match trace::chaos_event_for_fault(tag) {
            Some(event) => out.push_str(&format!(
                "  injected fault site: {event} x{count} (from schedule kind {tag}, max param {max_param}us)\n"
            )),
            None => out.push_str(&format!(
                "  schedule kind {tag} x{count}: shifts timers, leaves no dedicated event\n"
            )),
        }
    }
    for s in &case.schedule.stalls {
        let event = trace::chaos_event_for_fault("stall").unwrap_or("chaos_stall");
        match &s.while_holding {
            Some(m) => out.push_str(&format!(
                "  injected fault site: {event} of {} for {} gated on holding {m}\n",
                s.thread, s.duration
            )),
            None => out.push_str(&format!(
                "  injected fault site: {event} of {} for {} at {}\n",
                s.thread, s.duration, s.at
            )),
        }
    }
    Ok(out)
}
