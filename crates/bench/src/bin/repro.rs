//! Regenerates the paper's tables, figures, and experiments, and hosts
//! the resilience harness (`fuzz`, `shrink`, `replay`, `chaos
//! --recover`).
//!
//! Exit codes are unified in [`bench::exit`]: 0 success, 1 hazards or
//! replay divergence, 2 usage, 3 deadlock/wedge, 4 diff deltas, 5
//! regression or non-reproducing case, 6 file I/O, 7 unexplained fuzz
//! failure, 8 serve SLO breach. When several conditions accumulate,
//! the largest code wins.

use bench::exit;
use pcr::secs;

/// The usage text; printed on `help` and (to stderr) on a bad command.
const USAGE: &str = "\
usage: repro <command> [options]

commands:
  tables   [--window SECS] [--json PATH]
                             Tables 1-3 (runs all 12 benchmarks)
  table4                     Table 4 (static census)
  figures  [--window SECS] [--json PATH]
                             interval/priority/generation figures
  experiments                the §5/§6 experiments (E5-E13, E17)
  slack|spurious|inversion|quantum|mistakes|forkfail|weakmem|xlib|exploiters|retrystorm
                             one experiment by name
  history                    a 100ms event history of Cedar typing
  contention                 the §6.1 contention profile and §6.2 latency
                             histogram of Cedar typing and GVX scroll:
                             the reference-cell blocks of tables
  trace    [--chrome PATH] [--jsonl PATH] [--window SECS] [--chaos]
                             record one Cedar/Keyboard run (default 5s)
                             and export it: --chrome writes a Chrome
                             trace-event file for ui.perfetto.dev,
                             --jsonl the raw event stream (defaults to
                             trace-chrome.json when neither is given)
  diff     A.jsonl B.jsonl [--threshold PCT] [--schedule FILE]
                             align two exported runs and report rate/
                             latency/contention deltas beyond PCT
                             (default 1%); exits 4 on any delta; with
                             --schedule, names the fault sites a stored
                             fault schedule injects so its decisions can
                             be correlated with the diff
  chaos    [--window SECS] [--recover] [--json PATH]
                             fault-injected runs, replayed twice:
                             asserts byte-identical traces + hazard
                             table; with --recover, wedges each demo
                             cell unsupervised, then reruns it under the
                             deadlock-recovery supervisor and reports
                             recovery actions + degradation score; the
                             §6.2 metalock-inversion cell must resolve
                             via donation/priority boost, restart-free
  fuzz     [--budget N] [--workload SYS/BENCH] [--out DIR] [--window SECS]
           [--guided [--compare-grid]] [--wall-budget-ms MS] [--stats PATH]
                             chaos-schedule fuzzing: sweep seeds and
                             intensity grids over the benchmark matrix
                             plus the multiprocessor and weak-memory
                             worlds (default budget 64), store each
                             unique failure as a replayable schedule
                             under DIR (default target/fuzz); --guided
                             runs the coverage-guided mutation search
                             (corpus energy biased toward schedules
                             whose mutations find new signatures);
                             --compare-grid also runs the plain grid on
                             the same budget and exits 5 if guided found
                             fewer signatures; --wall-budget-ms caps
                             each sweep's wall clock; --stats writes a
                             JSON artifact with signatures/cpu-minute;
                             a failure whose cause is unexplained prints
                             its wait-for graph and exits 7
  shrink   FILE [--max-replays N]
                             delta-debug a stored failing schedule to a
                             locally minimal one with the same failure
                             signature; writes FILE with extension
                             .min.json and prints a repro command
  replay   FILE | --all DIR  replay a stored failing schedule (or, with
                             --all, every .json case under DIR in sorted
                             order — the corpus regression suite) and
                             verify each still reproduces its signature;
                             the worst per-case exit code wins
  lint     [--json PATH] [--sarif PATH] [--baseline PATH [--write-baseline]]
           [--confirm DIR]   threadlint: static discipline lints and the
                             fork-site self-census over this workspace;
                             --sarif writes a SARIF 2.1.0 log, --baseline
                             ratchets findings against a committed
                             inventory (two-sided: new findings AND stale
                             entries fail; exit 6 if it cannot be read;
                             --write-baseline regenerates),
                             --confirm replays the stored corpus in DIR
                             and classifies each finding as confirmed /
                             plausible / unreached
  markdown [--window SECS]   Tables 1-4 as Markdown (for EXPERIMENTS.md)
  tournament [--window SECS] [--json PATH] [--trace-dir DIR]
           [--reference | --workload SYS/BENCH]
                             the scheduling-policy tournament: run the
                             benchmark matrix under every policy (rr,
                             cfs, lottery, mlfq) and compare per-priority
                             wakeup-to-run latency and contention across
                             policies (docs/SCHEDULING.md); --json writes
                             the threadstudy-tournament-v1 comparison,
                             --trace-dir a Perfetto trace per
                             (cell, policy), --reference restricts to
                             Cedar/Keyboard + GVX/Scroll; exits 3 unless
                             every policy completes every cell
                             deadlock-free
  serve    [--sessions N] [--scenario reference|burst|outage]
           [--reps N] [--pipeline-workers N] [--no-retry-budget]
           [--json PATH] [--baseline PATH] [--chrome PATH]
           [--slo-p50-ms N] [--slo-p99-ms N] [--slo-p999-ms N]
                             the overload-resilient serve world
                             (docs/SERVING.md): an open-loop fleet of N
                             client sessions (default 25000) against the
                             input-to-echo pipeline with admission
                             control, deadline shedding, retry budgets,
                             a circuit breaker, and the degradation
                             ladder; prints the threadstudy-serve-v1
                             report and gates the run on its
                             p50/p99/p999 SLOs (exit 8 on breach);
                             --reps N runs N replicas on the host
                             executor and exits 1 unless their reports
                             are byte-identical; --baseline regression-
                             checks a stored report (exit 5 on drift;
                             exit 6 if the file is unreadable or a
                             field is missing or of the wrong type);
                             --scenario outage injects mid-run X-server
                             blackouts; --chrome additionally records
                             one traced run for ui.perfetto.dev
  all      [--window SECS] [--json PATH]   everything
  help                       this text

global options:
  --seed HEX     RNG seed for the simulated worlds (default ceda2026;
                 history defaults to its own e7e27); even number of hex
                 digits, max 16, 0x prefix and _ separators allowed
  --workers N    worker threads for the matrix/fuzz executor (default:
                 all hardware threads); results are identical at every
                 worker count unless --wall-budget-ms cuts a fuzz sweep
                 short; 1 runs one cell at a time on the calling thread
  --policy P     scheduling policy for the simulated worlds: rr (the
                 paper's 7-priority round-robin, default), cfs, lottery,
                 or mlfq; honored by tables, figures, markdown, all,
                 contention, history, trace, chaos (not --recover),
                 fuzz, and serve (tournament always races all four);
                 see docs/SCHEDULING.md";

/// Reports a failed run. Returns the exit code the condition maps to
/// ([`exit::OK`] when the run was fine) so callers can accumulate the
/// worst one.
fn check_run(label: &str, report: &pcr::RunReport) -> i32 {
    let mut code = exit::OK;
    if report.deadlocked() {
        eprintln!("FAIL {label}: deadlocked ({:?})", report.reason);
        code = exit::worst(code, exit::DEADLOCK);
    }
    if report.hazardous() {
        eprintln!("FAIL {label}: {} hazards detected", report.hazards.total());
        eprintln!("{}", trace::hazard_table(&report.hazards).to_text());
        code = exit::worst(code, exit::HAZARD);
    }
    code
}

fn history(seed: u64, policy: pcr::PolicyKind) -> i32 {
    let mut sim = workloads::build_chaos_with(
        workloads::System::Cedar,
        workloads::Benchmark::Keyboard,
        seed,
        pcr::ChaosConfig::none(),
        |cfg| cfg.with_policy(policy),
    );
    let (report, rec) = trace::Recording::run(&mut sim, pcr::RunLimit::For(secs(5)));
    let start = pcr::SimTime::from_micros(3_000_000);
    let history = trace::Timeline(&rec).render(start, pcr::millis(100), 80);
    println!("{history}");
    println!("{}", trace::thread_table(&sim.threads()).to_text());
    check_run("history Cedar/Keyboard", &report)
}

/// `repro trace`: record one Cedar/Keyboard run and export it as a
/// Chrome trace-event file (for `ui.perfetto.dev`) and/or raw JSONL.
fn trace_cmd(
    window: pcr::SimDuration,
    seed: u64,
    policy: pcr::PolicyKind,
    chaos: bool,
    chrome_path: Option<&str>,
    jsonl_path: Option<&str>,
) -> i32 {
    let faults = if chaos {
        workloads::chaos_preset()
    } else {
        pcr::ChaosConfig::none()
    };
    let mut sim = workloads::build_chaos_with(
        workloads::System::Cedar,
        workloads::Benchmark::Keyboard,
        seed,
        faults,
        |cfg| cfg.with_policy(policy),
    );
    let (report, rec) = trace::Recording::run(&mut sim, pcr::RunLimit::For(window));
    if report.deadlocked() {
        eprintln!("FAIL trace: deadlocked ({:?})", report.reason);
        return exit::DEADLOCK;
    }
    let chrome_path = chrome_path.or(jsonl_path.is_none().then_some("trace-chrome.json"));
    // An unwritable path is the user's to fix, not a panic.
    if let Some(path) = chrome_path {
        if let Err(e) = rec.write_chrome_to(path) {
            eprintln!("{e}");
            return exit::IO;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = jsonl_path {
        if let Err(e) = rec.write_jsonl_to(path) {
            eprintln!("{e}");
            return exit::IO;
        }
        eprintln!("wrote {path}");
    }
    println!(
        "trace: Cedar/Keyboard, {} of virtual time, {} events{}",
        report.elapsed,
        rec.events.len(),
        if chaos { " (chaos preset)" } else { "" }
    );
    exit::OK
}

/// `repro diff`: align two JSONL traces and report the deltas; with
/// `--schedule`, also name the fault sites a stored schedule injects.
fn diff_cmd(path_a: &str, path_b: &str, threshold_pct: f64, schedule: Option<&str>) -> i32 {
    let load = |path: &str| -> Vec<trace::EventRecord> {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(exit::IO);
        });
        trace::parse_jsonl(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(exit::IO);
        })
    };
    let a = load(path_a);
    let b = load(path_b);
    let report = trace::diff_runs(&a, &b, threshold_pct);
    print!("{}", report.render());
    if let Some(schedule_path) = schedule {
        match bench::resilience_cli::describe_schedule(std::path::Path::new(schedule_path)) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("FAIL diff: {e}");
                return exit::IO;
            }
        }
    }
    if report.is_clean() {
        exit::OK
    } else {
        exit::DIFF_DELTA
    }
}

/// Chaos-mode smoke: one Cedar and one GVX benchmark with the standard
/// fault mix injected, each run twice from the same seed. The two
/// replays must produce byte-identical JSONL event traces and identical
/// hazard tallies — the acceptance bar for deterministic injection.
fn chaos(window: pcr::SimDuration, seed: u64, policy: pcr::PolicyKind) -> i32 {
    let preset = workloads::chaos_preset();
    let mut code = exit::OK;
    for (sys, bench) in bench::tables::REFERENCE_CELLS {
        let label = format!("chaos {}/{bench:?}", sys.name());
        let run = || {
            let mut sim = workloads::build_chaos_with(sys, bench, seed, preset.clone(), |cfg| {
                cfg.with_policy(policy)
            });
            let (report, rec) = trace::Recording::run(&mut sim, pcr::RunLimit::For(window));
            let mut buf = Vec::new();
            trace::write_jsonl(&rec.events, &mut buf).expect("serialize trace");
            (buf, report)
        };
        let (trace_a, report_a) = run();
        let (trace_b, report_b) = run();
        println!(
            "{label}: {} trace events, {} hazards",
            trace_a.iter().filter(|b| **b == b'\n').count(),
            report_a.hazards.total(),
        );
        println!("{}", trace::hazard_table(&report_a.hazards).to_text());
        let mut ok = true;
        if report_a.deadlocked() {
            eprintln!("FAIL {label}: deadlocked ({:?})", report_a.reason);
            code = exit::worst(code, exit::DEADLOCK);
            ok = false;
        }
        if trace_a != trace_b {
            let first_diff = trace_a
                .iter()
                .zip(trace_b.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(trace_a.len().min(trace_b.len()));
            eprintln!(
                "FAIL {label}: same-seed replay diverged (lengths {} vs {}, first diff at byte {first_diff})",
                trace_a.len(),
                trace_b.len(),
            );
            code = exit::worst(code, exit::HAZARD);
            ok = false;
        }
        if report_a.hazards != report_b.hazards {
            eprintln!(
                "FAIL {label}: hazard tallies diverged across replays:\n{:?}\n{:?}",
                report_a.hazards, report_b.hazards
            );
            code = exit::worst(code, exit::HAZARD);
            ok = false;
        }
        if ok {
            println!("{label}: replay byte-identical, hazard tallies stable");
        }
    }
    code
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A leading `--flag` means "all the default work, with options".
    let (what, rest) = match args.first().map(String::as_str) {
        None => ("all", &args[..]),
        Some("-h") | Some("--help") => ("help", &args[1..]),
        Some(first) if first.starts_with("--") => ("all", &args[..]),
        Some(first) => (first, &args[1..]),
    };
    let experiment = bench::experiments::report_by_name(what);
    if let Some(block) = usage_block(what).or(experiment.map(|_| "")) {
        reject_unknown_flags(what, block, rest);
    }
    let has = |name: &str| args.iter().any(|a| a == name);
    let flag_value = |name: &str| flag(&args, name, |s| Ok(s.to_string()));
    let count = |name: &str| flag(&args, name, positive_u64);
    let count32 = |name: &str| flag(&args, name, positive_u32);
    let window_flag = count("--window").map(secs);
    let window = window_flag.unwrap_or(secs(30));
    // `--seed HEX` (0x prefix and _ separators accepted). Subcommands
    // keep their historical defaults when the flag is absent, so
    // existing outputs stay byte-identical.
    let seed_flag = flag(&args, "--seed", parse_seed);
    let seed = seed_flag.unwrap_or(0xCEDA_2026);
    let workers_flag = flag(&args, "--workers", |s| match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err("expected a positive integer".to_string()),
    });
    let workers = workers_flag.unwrap_or_else(bench::tables::workers_available);
    // `--policy` (rr | cfs | lottery | mlfq); default is the paper's
    // round-robin, so outputs without the flag stay byte-identical.
    let policy: pcr::PolicyKind = flag(&args, "--policy", str::parse).unwrap_or_default();
    // The given cells under `--policy`; a failed cell exits 3.
    let measure = |cells: &[(workloads::System, workloads::Benchmark)]| {
        let run = bench::tables::run_all_with_workers(cells, policy, window, seed, workers);
        run.unwrap_or_else(|e| {
            eprintln!("FAIL {e}");
            std::process::exit(exit::DEADLOCK);
        })
    };
    let json_path = flag_value("--json");
    let workload = || flag(&args, "--workload", bench::resilience_cli::parse_workload);

    let mut code = exit::OK;
    match what {
        "table4" => println!("{}", bench::tables::table4().to_text()),
        "experiments" => {
            for section in bench::experiments::all_reports() {
                println!("{section}");
            }
        }
        "help" => println!("{USAGE}\n\n{}", exit::TABLE),
        "history" => code = history(seed_flag.unwrap_or(0xE7E27), policy),
        "contention" => {
            let results = measure(&bench::tables::REFERENCE_CELLS);
            code = any_hazardous(&results);
            print!("{}", bench::tables::profile_section(&results, false));
        }
        "trace" => {
            code = trace_cmd(
                window_flag.unwrap_or(secs(5)),
                seed,
                policy,
                has("--chaos"),
                flag_value("--chrome").as_deref(),
                flag_value("--jsonl").as_deref(),
            );
        }
        "diff" => {
            let positional: Vec<&String> = args[1..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .collect();
            let [path_a, path_b] = positional[..] else {
                eprintln!("diff needs exactly two trace files\n{USAGE}");
                std::process::exit(exit::USAGE);
            };
            let threshold = flag(&args, "--threshold", threshold).unwrap_or(1.0);
            let schedule = flag_value("--schedule");
            code = diff_cmd(path_a, path_b, threshold, schedule.as_deref());
        }
        "chaos" if has("--recover") => {
            code = bench::resilience_cli::recover_cmd(
                window_flag.unwrap_or(secs(12)),
                seed,
                json_path.as_deref(),
            );
        }
        "chaos" => code = chaos(window, seed, policy),
        "fuzz" if has("--compare-grid") && !has("--guided") => {
            eprintln!("bad --compare-grid: it needs --guided");
            std::process::exit(exit::USAGE);
        }
        "fuzz" => {
            let opts = bench::resilience_cli::FuzzOpts {
                budget: count32("--budget").unwrap_or(64),
                base_seed: seed_flag.unwrap_or(0x5EED),
                workload: workload(),
                out_dir: flag_value("--out")
                    .unwrap_or_else(|| "target/fuzz".to_string())
                    .into(),
                window_secs: count("--window"),
                guided: has("--guided"),
                compare_grid: has("--compare-grid"),
                wall_budget_ms: count("--wall-budget-ms"),
                stats: flag_value("--stats").map(Into::into),
                workers,
                policy,
            };
            code = bench::resilience_cli::fuzz_cmd(&opts);
        }
        "shrink" => {
            let Some(file) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("shrink needs a stored case file\n{USAGE}");
                std::process::exit(exit::USAGE);
            };
            let max_replays = count32("--max-replays").unwrap_or(150);
            code = bench::resilience_cli::shrink_cmd(std::path::Path::new(file), max_replays);
        }
        "replay" => {
            if let Some(dir) = flag_value("--all") {
                code = bench::resilience_cli::replay_all_cmd(std::path::Path::new(&dir));
            } else {
                let Some(file) = args.get(1).filter(|a| !a.starts_with("--")) else {
                    eprintln!("replay needs a stored case file\n{USAGE}");
                    std::process::exit(exit::USAGE);
                };
                code = bench::resilience_cli::replay_cmd(std::path::Path::new(file));
            }
        }
        "lint" => {
            let opts = bench::lint::LintOpts {
                json: json_path.clone(),
                sarif: flag_value("--sarif"),
                baseline: flag_value("--baseline"),
                write_baseline: has("--write-baseline"),
                confirm: flag_value("--confirm"),
            };
            code = bench::lint::run(&opts);
        }
        "serve" => {
            let mut opts =
                bench::serve_cli::ServeOpts::new(count32("--sessions").unwrap_or(25_000), seed);
            if let Some(s) = flag_value("--scenario") {
                opts.scenario =
                    workloads::serve::ServeScenario::from_label(&s).unwrap_or_else(|| {
                        eprintln!("bad --scenario {s:?}: expected reference, burst, or outage");
                        std::process::exit(exit::USAGE);
                    });
            }
            opts.pipeline_workers = count("--pipeline-workers").map(|n| n as usize);
            opts.reps = count32("--reps").unwrap_or(1);
            opts.workers = workers;
            opts.policy = policy;
            opts.no_retry_budget = has("--no-retry-budget");
            opts.slo_p50_ms = count("--slo-p50-ms");
            opts.slo_p99_ms = count("--slo-p99-ms");
            opts.slo_p999_ms = count("--slo-p999-ms");
            opts.json = json_path.clone();
            opts.baseline = flag_value("--baseline");
            opts.chrome = flag_value("--chrome");
            code = bench::serve_cli::serve_cmd(&opts);
        }
        "tournament" => {
            let mut opts = bench::tournament::TournamentOpts::new(
                window_flag.unwrap_or(secs(10)),
                seed,
                workers,
            );
            if has("--reference") {
                opts = opts.reference_cells();
            } else if let Some(cell) = workload() {
                opts.cells = vec![cell];
            }
            opts.trace_dir = flag_value("--trace-dir").map(Into::into);
            let report = bench::tournament::run_tournament(&opts);
            println!("{}", report.summary_table().to_text());
            for &(system, benchmark) in &opts.cells {
                let lat = report.latency_comparison(system, benchmark);
                if !lat.is_empty() {
                    println!("{}", lat.to_text());
                }
            }
            if let Some(path) = &json_path {
                code = exit::write(path, report.to_json().pretty() + "\n");
            }
            let mut traces = report.entries.iter().filter_map(|e| e.trace_path.as_ref());
            if let Some(Err(e)) = traces.find(|t| t.is_err()) {
                eprintln!("{e}");
                code = exit::worst(code, exit::IO);
            }
            let failures = report.failures();
            for f in &failures {
                eprintln!(
                    "FAIL tournament: {} under {}: {}",
                    f.cell_label(),
                    f.policy,
                    f.outcome.as_ref().unwrap_err()
                );
            }
            if failures.is_empty() {
                println!(
                    "tournament: {} cell(s) x {} policies, all complete and deadlock-free",
                    opts.cells.len(),
                    report.policies.len()
                );
            } else {
                code = exit::worst(code, exit::DEADLOCK);
            }
        }
        "markdown" => {
            let results = measure(&bench::tables::matrix());
            code = any_hazardous(&results);
            println!("{}", bench::tables::table1(&results).to_markdown());
            println!("{}", bench::tables::table2(&results).to_markdown());
            println!("{}", bench::tables::table3(&results).to_markdown());
            println!("{}", bench::tables::table4().to_markdown());
            print!("{}", bench::tables::profile_section(&results, true));
        }
        "tables" | "figures" | "all" => {
            if what == "all" {
                for section in bench::experiments::all_reports() {
                    println!("{section}");
                }
            }
            let results = measure(&bench::tables::matrix());
            code = any_hazardous(&results);
            if let Some(path) = &json_path {
                let v = bench::tables::json_summary(&results);
                code = exit::worst(code, exit::write(path, v.pretty()));
            }
            if what != "figures" {
                println!("{}", bench::tables::table1(&results).to_text());
                println!("{}", bench::tables::table2(&results).to_text());
                println!("{}", bench::tables::table3(&results).to_text());
                println!("{}", bench::tables::table4().to_text());
                print!("{}", bench::tables::profile_section(&results, false));
            }
            if what != "tables" {
                for r in &results {
                    println!("{}", bench::tables::interval_figure(r));
                }
                for r in &results {
                    println!("{}", bench::tables::priority_figure(r));
                }
                println!("{}", bench::tables::generation_figure(&results));
            }
        }
        other => match experiment {
            Some(report) => println!("{}", report()),
            None => {
                eprintln!("unknown command: {other}\n{USAGE}");
                std::process::exit(exit::USAGE);
            }
        },
    }
    if code != exit::OK {
        std::process::exit(code);
    }
}

/// The lines of `USAGE` that document `command`: its own line, which
/// may name several commands (`a|b`), and the deeper-indented lines
/// under it.
fn usage_block(command: &str) -> Option<&'static str> {
    let commands = USAGE.split_once("global options:")?.0;
    let starts: Vec<usize> = (commands.match_indices("\n  ").map(|(at, _)| at + 1))
        .filter(|&at| commands[at + 2..].starts_with(|c: char| c.is_ascii_lowercase()))
        .chain([commands.len()])
        .collect();
    let names_it = |b: &str| {
        b.split_whitespace()
            .next()
            .is_some_and(|n| n.split('|').any(|n| n == command))
    };
    (starts.windows(2).map(|w| &commands[w[0]..w[1]])).find(|b| names_it(b))
}

/// Exits 2 on a `--flag` in `args` that `command` does not take. USAGE
/// is the grammar, so there is no second list to keep in step: a
/// command takes the flags its own `block` of USAGE names and the
/// global options, and an experiment takes only the globals.
fn reject_unknown_flags(command: &str, block: &str, args: &[String]) {
    let globals = USAGE.split_once("global options:").map_or("", |(_, g)| g);
    let names = |text: &str, flag: &str| {
        text.match_indices(flag).any(|(at, _)| {
            !text[at + flag.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
        })
    };
    for flag in args.iter().filter(|a| a.starts_with("--")) {
        if !names(block, flag) && !names(globals, flag) {
            eprintln!("bad {flag}: repro {command} does not take it\n{block}(global options: see repro help)");
            std::process::exit(exit::USAGE);
        }
    }
}

/// Parses a `--seed` value: hex digits, optional `0x` prefix, `_`
/// separators allowed. Rejects empty, non-hex, odd-length, and overlong
/// inputs with a message explaining the fix, rather than truncating or
/// guessing.
fn parse_seed(s: &str) -> Result<u64, String> {
    let stripped = s
        .strip_prefix("0x")
        .or_else(|| s.strip_prefix("0X"))
        .unwrap_or(s);
    let t = stripped.replace('_', "");
    if t.is_empty() {
        return Err("expected hex digits, got none".to_string());
    }
    if let Some(bad) = t.chars().find(|c| !c.is_ascii_hexdigit()) {
        return Err(format!("{bad:?} is not a hex digit"));
    }
    if !t.len().is_multiple_of(2) {
        return Err(format!(
            "odd number of hex digits ({}); zero-pad to an even length (0{t})",
            t.len()
        ));
    }
    if t.len() > 16 {
        return Err(format!(
            "{} hex digits do not fit a 64-bit seed (max 16)",
            t.len()
        ));
    }
    u64::from_str_radix(&t, 16).map_err(|e| e.to_string())
}

/// The value after `--name`, parsed. Junk is a usage error in the strict
/// `--seed` style (`bad --flag "x": why`) rather than a silent default,
/// and so is a value-taking flag with nothing after it.
fn flag<T>(
    args: &[String],
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    let parsed = match args.get(i + 1) {
        Some(s) => parse(s).map_err(|e| format!(" {s:?}: {e}")),
        None => Err(": expected a value after it".to_string()),
    };
    Some(parsed.unwrap_or_else(|e| {
        eprintln!("bad {name}{e}");
        std::process::exit(exit::USAGE);
    }))
}

/// `diff --threshold`: a finite, non-negative percentage.
fn threshold(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err("expected a non-negative number, like 1.0".to_string()),
    }
}

/// As [`positive_u64`], additionally bounded to `u32`.
fn positive_u32(s: &str) -> Result<u32, String> {
    let v = positive_u64(s)?;
    u32::try_from(v).map_err(|_| format!("{v} does not fit a 32-bit count (max {})", u32::MAX))
}

/// A strictly positive integer: junk, zero, negative and overflowing
/// input each get their own explanation.
fn positive_u64(s: &str) -> Result<u64, String> {
    use std::num::IntErrorKind;
    match s.parse::<u64>() {
        Ok(0) => Err("must be at least 1".to_string()),
        Ok(v) => Ok(v),
        Err(e) if *e.kind() == IntErrorKind::PosOverflow => {
            Err(format!("does not fit a 64-bit count (max {})", u64::MAX))
        }
        Err(_) if s.trim_start().starts_with('-') => {
            Err("negative counts make no sense here; pass a positive integer".to_string())
        }
        Err(_) => Err("expected a positive integer".to_string()),
    }
}

/// Reports any benchmark run that surfaced hazards; returns
/// [`exit::HAZARD`] if any did, [`exit::OK`] otherwise.
fn any_hazardous(results: &[workloads::BenchResult]) -> i32 {
    let mut code = exit::OK;
    for r in results {
        if r.hazards.total() > 0 {
            eprintln!(
                "FAIL {}/{:?}: {} hazards detected",
                r.system.name(),
                r.benchmark,
                r.hazards.total()
            );
            eprintln!("{}", trace::hazard_table(&r.hazards).to_text());
            code = exit::HAZARD;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::{parse_seed, positive_u64};

    #[test]
    fn positive_u64_accepts_ordinary_counts() {
        assert_eq!(positive_u64("1"), Ok(1));
        assert_eq!(positive_u64("25000"), Ok(25_000));
        assert_eq!(positive_u64("18446744073709551615"), Ok(u64::MAX));
    }

    #[test]
    fn positive_u64_rejects_bad_counts_with_clear_messages() {
        let zero = positive_u64("0").unwrap_err();
        assert!(zero.contains("at least 1"), "{zero}");

        let neg = positive_u64("-3").unwrap_err();
        assert!(neg.contains("negative"), "{neg}");

        let over = positive_u64("18446744073709551616").unwrap_err();
        assert!(over.contains("does not fit a 64-bit count"), "{over}");

        let junk = positive_u64("three").unwrap_err();
        assert!(junk.contains("expected a positive integer"), "{junk}");

        let empty = positive_u64("").unwrap_err();
        assert!(empty.contains("expected a positive integer"), "{empty}");
    }

    #[test]
    fn parse_seed_accepts_the_documented_forms() {
        assert_eq!(parse_seed("ceda2026"), Ok(0xCEDA_2026));
        assert_eq!(parse_seed("0xceda2026"), Ok(0xCEDA_2026));
        assert_eq!(parse_seed("0Xceda2026"), Ok(0xCEDA_2026));
        assert_eq!(parse_seed("ceda_2026"), Ok(0xCEDA_2026));
        assert_eq!(parse_seed("ffffffffffffffff"), Ok(u64::MAX));
    }

    #[test]
    fn parse_seed_rejects_bad_inputs_with_clear_messages() {
        let odd = parse_seed("abc").unwrap_err();
        assert!(odd.contains("odd number of hex digits"), "{odd}");
        assert!(odd.contains("0abc"), "{odd}");

        let long = parse_seed("aabbccddeeff00112233").unwrap_err();
        assert!(long.contains("do not fit a 64-bit seed"), "{long}");

        let junk = parse_seed("xyz").unwrap_err();
        assert!(junk.contains("not a hex digit"), "{junk}");

        let empty = parse_seed("0x").unwrap_err();
        assert!(empty.contains("got none"), "{empty}");
    }
}
