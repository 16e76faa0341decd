//! Black-box tests of the `repro` binary's argument handling.

use std::path::Path;
use std::process::Command;

use resilience::StoredCase;

/// Runs `repro args` in the current directory: exit code, stdout, stderr.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// A path under the temp directory that no other test process uses.
fn temp(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    path.to_str().expect("a UTF-8 temp dir").to_string()
}

#[test]
fn unknown_command_prints_usage_and_exits_nonzero() {
    for command in ["no-such-command", "bench"] {
        let (code, _, stderr) = run(&[command]);
        assert_eq!(code, Some(2), "{command}: exit code {code:?}");
        assert!(
            stderr.contains(&format!("unknown command: {command}")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: repro"), "{stderr}");
    }
}

#[test]
fn help_prints_usage_and_succeeds() {
    for arg in ["help", "--help", "-h"] {
        let (code, stdout, _) = run(&[arg]);
        assert_eq!(code, Some(0), "{arg}: {:?}", code);
        assert!(stdout.contains("usage: repro"), "{arg}: {}", stdout);
        assert!(stdout.contains("lint"), "{arg}: {}", stdout);
    }
}

#[test]
fn help_lists_every_documented_subcommand() {
    // The README quickstart documents these; `repro help` must list
    // each one so the docs and the binary cannot drift apart.
    let (code, stdout, _) = run(&["help"]);
    assert_eq!(code, Some(0), "{:?}", code);
    let documented = "tables table4 figures experiments history contention trace diff chaos \
                      fuzz shrink replay lint markdown serve tournament all help";
    for cmd in documented.split_whitespace() {
        assert!(
            stdout.lines().any(|l| {
                l.trim_start().starts_with(cmd)
                    || l.trim_start()
                        .split('|')
                        .any(|alt| alt.split_whitespace().next() == Some(cmd))
            }),
            "`repro help` does not list {cmd}:\n{stdout}"
        );
    }
}

/// Table 4 as the paper prints it: its counts and their rounded
/// percentages, each TOTAL the sum of its column.
const TABLE4: &str = "\
Table 4: Static counts of thread paradigms\n\
Paradigm                Cedar     %  GVX     %\n\
----------------------------------------------\n\
Defer work                108   31%   77   33%\n\
General pumps              48   14%   33   14%\n\
Slack processes             7    2%    2    1%\n\
Sleepers                   67   19%   15    6%\n\
Oneshots                   25    7%   11    5%\n\
Deadlock avoid             35   10%    6    3%\n\
Task rejuvenate            11    3%    0    0%\n\
Serializers                 5    1%    7    3%\n\
Encapsulated fork          14    4%    5    2%\n\
Concurrency exploiters      3    1%    0    0%\n\
Unknown or other           25    7%   78   33%\n\
TOTAL                     348  100%  234  100%\n\
\n";

#[test]
fn table4_prints_the_paper_counts_byte_for_byte() {
    let (code, stdout, stderr) = run(&["table4"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stdout, TABLE4);
}

#[test]
fn json_summary_carries_table4_counts() {
    let summary = bench::tables::json_summary(&[]);
    let table4 = summary.get("table4").expect("a table4 field").to_string();
    let rows = [
        ("Defer work", 108, 77),
        ("General pumps", 48, 33),
        ("Slack processes", 7, 2),
        ("Sleepers", 67, 15),
        ("Oneshots", 25, 11),
        ("Deadlock avoid", 35, 6),
        ("Task rejuvenate", 11, 0),
        ("Serializers", 5, 7),
        ("Encapsulated fork", 14, 5),
        ("Concurrency exploiters", 3, 0),
        ("Unknown or other", 25, 78),
    ]
    .map(|(p, c, g)| format!("{{\"paradigm\":\"{p}\",\"cedar\":{c},\"gvx\":{g}}}"));
    assert_eq!(table4, format!("[{}]", rows.join(",")));
}

/// Structural validation of a Chrome trace-event file: valid JSON, the
/// object form with a traceEvents array, every X span with non-negative
/// dur, and per-track monotonically non-decreasing timestamps.
fn validate_chrome(text: &str) {
    let doc = trace::Json::parse(text).expect("chrome trace parses as JSON");
    let events = doc.arr_at("traceEvents", Ok).unwrap();
    assert!(!events.is_empty(), "empty trace");
    let mut last_ts: std::collections::BTreeMap<(u64, u64), u64> =
        std::collections::BTreeMap::new();
    for e in events {
        let ph = e.str_at("ph").unwrap();
        assert!(
            ["X", "i", "s", "f", "M"].contains(&ph),
            "unexpected phase {ph:?}"
        );
        if ph == "M" {
            continue;
        }
        let (pid, tid, ts) = (e.u64_at("pid"), e.u64_at("tid"), e.u64_at("ts"));
        let (pid, tid, ts) = (pid.unwrap(), tid.unwrap(), ts.unwrap());
        if ph == "X" {
            e.u64_at("dur").expect("X without dur");
        }
        let prev = last_ts.entry((pid, tid)).or_insert(0);
        assert!(
            ts >= *prev,
            "track ({pid},{tid}) went backwards: {ts} after {prev}"
        );
        *prev = ts;
    }
}

#[test]
fn trace_chrome_is_valid_and_seed_deterministic() {
    let (p1, p2) = (temp("chrome-a.json"), temp("chrome-b.json"));
    for p in [&p1, &p2] {
        let (code, _, stderr) = run(&["trace", "--window", "2", "--seed", "abc123", "--chrome", p]);
        assert_eq!(code, Some(0), "stderr:\n{}", stderr);
    }
    let a = std::fs::read_to_string(&p1).expect("trace file");
    let b = std::fs::read_to_string(&p2).expect("trace file");
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
    assert_eq!(a, b, "same-seed chrome traces are not byte-identical");
    validate_chrome(&a);
}

#[test]
fn diff_of_identical_runs_is_clean_and_chaos_names_a_fault_site() {
    let clean1 = temp("clean1.jsonl");
    let clean2 = temp("clean2.jsonl");
    let chaos = temp("chaos.jsonl");
    for (path, extra) in [(&clean1, None), (&clean2, None), (&chaos, Some("--chaos"))] {
        let args = ["trace", "--window", "2", "--seed", "77", "--jsonl", path];
        let (code, _, stderr) = run(&[&args[..], extra.as_slice()].concat());
        assert_eq!(code, Some(0), "stderr:\n{}", stderr);
    }

    // Identical-seed clean runs: zero deltas, exit 0.
    let (code, stdout, _) = run(&["diff", &clean1, &clean2]);
    assert_eq!(code, Some(0), "clean diff failed:\n{stdout}");
    assert!(stdout.contains("no deltas"), "{stdout}");

    // Chaos vs clean: the dedicated diff-delta exit code, at least one
    // named fault site.
    let (code, stdout, _) = run(&["diff", &clean1, &chaos]);
    assert_eq!(code, Some(4), "chaos diff exit:\n{stdout}");
    assert!(stdout.contains("injected fault site:"), "{stdout}");

    for p in [&clean1, &clean2, &chaos] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn diff_of_a_file_of_brackets_is_a_parse_error_not_a_stack_overflow() {
    let path = temp("brackets.jsonl");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let (code, _, stderr) = run(&["diff", &path, &path]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(6), "stderr:\n{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
}

/// Every subcommand that writes an output file, not only `trace`: an
/// unwritable path is one line and exit 6, never a panic.
#[test]
fn trace_to_an_unwritable_path_is_an_io_error_not_a_panic() {
    let fuzz_out = &temp("unwritable-fuzz");
    let x = "/nonexistent/x.json";
    for args in [
        &["trace", "--window", "1", "--chrome", x][..],
        &["trace", "--window", "1", "--jsonl", x],
        &["tournament", "--reference", "--window", "1", "--json", x],
        &[
            "tournament",
            "--reference",
            "--window",
            "1",
            "--trace-dir",
            "/nonexistent/d",
        ],
        &["tables", "--window", "1", "--json", x],
        &["figures", "--window", "1", "--json", x],
        &["all", "--window", "1", "--json", x],
        &["lint", "--json", x],
        &["lint", "--sarif", x],
        &["lint", "--baseline", x, "--write-baseline"],
        &["serve", "--sessions", "200", "--json", x],
        &["serve", "--sessions", "200", "--chrome", x],
        &["chaos", "--recover", "--window", "1", "--json", x],
        &[
            "fuzz", "--budget", "1", "--window", "1", "--out", fuzz_out, "--stats", x,
        ],
    ] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, Some(6), "{args:?} stderr:\n{stderr}");
        let cannot = stderr
            .lines()
            .filter(|l| l.starts_with("cannot write /nonexistent/"));
        assert_eq!(cannot.count(), 1, "{args:?} stderr:\n{stderr}");
    }
    std::fs::remove_dir_all(fuzz_out).ok();
}

/// Every command that measures a matrix cell runs it through the one
/// runner under `--policy`: `rr` is the flagless run, byte for byte, and
/// a reference cell's `cfs` profile in `tables` is the tournament's.
#[test]
fn tables_obey_the_policy_and_measure_a_cell_as_the_tournament_does() {
    use trace::Json;
    let written = |args: &[&str]| {
        let path = temp(&args.join("-"));
        let mut args = args.to_vec();
        args.extend(["--window", "2", "--json", &path]);
        let (code, _, stderr) = run(&args);
        assert_eq!(code, Some(0), "{args:?} stderr:\n{stderr}");
        let text = std::fs::read_to_string(&path).expect("the --json file");
        std::fs::remove_file(&path).ok();
        text
    };
    let flagless = written(&["tables"]);
    let rr = written(&["tables", "--policy", "rr"]);
    assert!(rr == flagless, "tables --policy rr is not the flagless run");
    let cfs = Json::parse(&written(&["tables", "--policy", "cfs"])).expect("tables JSON");
    let tournament = written(&["tournament", "--reference"]);
    let tournament = Json::parse(&tournament).expect("tournament JSON");
    let rows = cfs
        .get("benchmarks")
        .and_then(Json::as_array)
        .expect("rows");
    let cells = tournament
        .get("cells")
        .and_then(Json::as_array)
        .expect("cells");
    assert_eq!(cells.len(), 2);
    for cell in cells {
        let (system, benchmark) = (cell.get("system"), cell.get("benchmark"));
        let label = format!("{system:?}/{benchmark:?}");
        let entries = cell.get("policies").and_then(Json::as_array).expect(&label);
        let profile = |policy: &str| {
            let entry = entries.iter().find(|e| e.str_at("policy") == Ok(policy));
            entry.and_then(|e| e.get("profile")).expect(&label)
        };
        let row = rows
            .iter()
            .find(|r| r.get("system") == system && r.get("benchmark") == benchmark)
            .expect(&label);
        assert!(profile("cfs") != profile("rr"), "{label}: cfs is rr");
        assert!(row.get("profile") == Some(profile("cfs")), "{label}");
    }
}

/// `contention` prints the reference-cell blocks of `tables`, at the same
/// seed, window and policy; it and `history` obey `--policy`.
#[test]
fn contention_is_the_reference_blocks_of_tables_under_every_policy() {
    let stdout = |args: &[&str]| {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(0), "{args:?} stderr:\n{stderr}");
        stdout
    };
    let mut outputs = Vec::new();
    for policy in [&[][..], &["--policy", "cfs"]] {
        let with = |cmd: &str| stdout(&[&[cmd][..], policy].concat());
        let (tables, contention) = (with("tables"), with("contention"));
        for block in ["== Keyboard input ==", "== Window scrolling =="] {
            assert!(contention.contains(block), "{policy:?}:\n{contention}");
        }
        assert!(
            tables.ends_with(&contention),
            "{policy:?}: contention is not the tail of tables:\n{contention}"
        );
        outputs.push((contention, with("history")));
    }
    assert!(outputs[0].0 != outputs[1].0, "contention ignores --policy");
    assert!(outputs[0].1 != outputs[1].1, "history ignores --policy");
}

#[test]
fn help_documents_the_exit_codes() {
    let stdout = run(&["help"]).1;
    assert!(stdout.contains("exit codes:"), "{stdout}");
    for needle in ["diff deltas", "deadlock or wedge", "unexplained cause"] {
        assert!(stdout.contains(needle), "missing {needle:?}:\n{stdout}");
    }
}

#[test]
fn bad_seeds_are_rejected_with_an_explanation() {
    for (seed, needle) in [
        ("abc", "odd number of hex digits"),
        ("abc", "0abc"),
        ("aabbccddeeff00112233", "do not fit a 64-bit seed"),
        ("xyz1", "not a hex digit"),
        ("0x", "got none"),
    ] {
        let (code, _, stderr) = run(&["table4", "--seed", seed]);
        assert_eq!(code, Some(2), "seed {seed:?}: {:?}", code);
        assert!(
            stderr.contains(needle),
            "seed {seed:?}: expected {needle:?} in:\n{stderr}"
        );
    }
}

#[test]
fn bad_counts_are_rejected_with_an_explanation() {
    for (args, needle) in [
        (&["serve", "--reps", "0"][..], "must be at least 1"),
        (&["serve", "--reps", "-3"][..], "negative"),
        (
            &["serve", "--reps", "99999999999"][..],
            "does not fit a 32-bit count",
        ),
        (
            &["serve", "--reps", "18446744073709551616"][..],
            "does not fit a 64-bit count",
        ),
        (&["tables", "--window", "junk"][..], "positive integer"),
        (&["serve", "--sessions", "0"][..], "must be at least 1"),
        (&["serve", "--reps", "three"][..], "positive integer"),
        (&["serve", "--slo-p99-ms", "-1"][..], "negative"),
        (&["tables", "--workers", "0"][..], "positive integer"),
        // These four used to fall back to a default without a word;
        // `--wall-budget-ms` is the fuzz CI job's only wall-clock bound.
        (&["fuzz", "--budget", "lots"][..], "positive integer"),
        (&["fuzz", "--wall-budget-ms", "60s"][..], "positive integer"),
        (
            &["shrink", "case.json", "--max-replays", "0"][..],
            "must be at least 1",
        ),
        (
            &["diff", "a.jsonl", "b.jsonl", "--threshold", "lots"][..],
            "non-negative number",
        ),
        // A value-taking flag with nothing after it is not "absent".
        (&["fuzz", "--budget"][..], "expected a value"),
        (&["tables", "--json"][..], "expected a value"),
        (&["tables", "--window"][..], "expected a value"),
        // A flag the command's own USAGE block does not name.
        (&["fuzz", "--gudied"][..], "repro fuzz does not take it"),
        (&["fuzz", "--compare-grid"][..], "needs --guided"),
        (&["e17", "--window", "1"][..], "repro e17 does not take it"),
    ] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, Some(2), "args {args:?}: {:?}", code);
        assert!(
            stderr.contains(needle),
            "args {args:?}: expected {needle:?} in:\n{stderr}"
        );
        // The hint names the offending flag, --seed style.
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(stderr.contains(flag), "args {args:?}:\n{stderr}");
    }
}

#[test]
fn serve_report_is_deterministic_across_runs_and_worker_counts() {
    let mut reports = Vec::new();
    for (tag, workers) in [("a", "1"), ("b", "4")] {
        let path = temp(&format!("serve-{tag}.json"));
        let (code, stdout, stderr) = run(&[
            "serve",
            "--sessions",
            "1200",
            "--seed",
            "A5",
            "--reps",
            "2",
            "--workers",
            workers,
            "--json",
            &path,
        ]);
        assert_eq!(
            code,
            Some(0),
            "workers {workers}:\nstdout:\n{stdout}\nstderr:\n{stderr}"
        );
        assert!(stdout.contains("slo: all gates met"), "{stdout}");
        reports.push(std::fs::read_to_string(&path).expect("report json"));
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(
        reports[0], reports[1],
        "serve reports differ across --workers values"
    );
    assert!(
        reports[0].starts_with("{\"schema\":\"threadstudy-serve-v1\""),
        "{:.>120}",
        reports[0]
    );
}

#[test]
fn serve_slo_breach_exits_with_the_dedicated_code() {
    let (code, stdout, stderr) = run(&[
        "serve",
        "--sessions",
        "800",
        "--seed",
        "A5",
        "--slo-p99-ms",
        "1",
    ]);
    assert_eq!(code, Some(8), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("SLO breach"), "{stderr}");
}

#[test]
fn serve_baseline_catches_a_planted_regression() {
    let path = temp("serve-base.json");
    let serve = |flag| run(&["serve", "--sessions", "800", "--seed", "A5", flag, &path]);
    let (code, _, stderr) = serve("--json");
    assert_eq!(code, Some(0), "{}", stderr);
    // Same cell vs its own report: clean.
    let (code, _, stderr) = serve("--baseline");
    assert_eq!(code, Some(0), "self-baseline:\n{}", stderr);
    // Plant a much better baseline: current goodput now looks regressed.
    let text = std::fs::read_to_string(&path).expect("baseline");
    let doc = trace::Json::parse(&text).expect("baseline json");
    let goodput = doc.f64_at("goodput_per_sec").unwrap();
    let planted = text.replacen(
        &format!("\"goodput_per_sec\":{goodput}"),
        &format!("\"goodput_per_sec\":{}", goodput * 10.0),
        1,
    );
    assert_ne!(planted, text, "failed to plant the regression");
    std::fs::write(&path, planted).unwrap();
    let (code, _, stderr) = serve("--baseline");
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(5), "planted baseline:\n{}", stderr);
    assert!(stderr.contains("goodput"), "{}", stderr);
}

#[test]
fn serve_baseline_without_a_gated_field_is_a_parse_error() {
    let path = temp("serve-cut.json");
    let serve = |flag| run(&["serve", "--sessions", "800", "--seed", "A5", flag, &path]);
    let (code, _, _) = serve("--json");
    assert_eq!(code, Some(0), "{:?}", code);
    // Cut the goodput field out: the gate must refuse the file, not
    // compare against a goodput of zero that no run can regress from.
    let text = std::fs::read_to_string(&path).expect("baseline");
    let at = text.find("\"goodput_per_sec\":").expect("goodput field");
    let end = at + text[at..].find(',').expect("field separator") + 1;
    std::fs::write(&path, format!("{}{}", &text[..at], &text[end..])).unwrap();
    let (code, _, stderr) = serve("--baseline");
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(6), "{stderr}");
    assert!(stderr.contains("goodput_per_sec"), "{stderr}");
}

#[test]
fn removed_duplicate_flags_are_not_in_help_and_serve_rejects_chaos() {
    let help = run(&["help"]).1;
    assert!(!help.contains("--serial"), "{help}");
    assert!(!help.contains("--chaos outage"), "{help}");
    assert!(help.contains("[--chaos]"), "trace keeps its boolean");
    // The old spelling must not fall through to the reference scenario.
    let (code, _, stderr) = run(&["serve", "--sessions", "800", "--chaos", "outage"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--scenario outage"), "{stderr}");
}

#[test]
fn fuzz_shrink_replay_round_trip() {
    let dir = &temp("repro-fuzz");
    // Budget 2 on the Cedar/Keyboard cell covers the tolerated preset
    // rung and the guaranteed fork-cap failure.
    let fuzz = [
        "fuzz",
        "--budget",
        "2",
        "--workload",
        "cedar/keyboard",
        "--window",
        "4",
    ];
    let (code, stdout, stderr) = run(&[&fuzz[..], &["--out", dir]].concat());
    assert_eq!(code, Some(0), "fuzz failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("1 unique signature(s)"), "{stdout}");
    assert!(stdout.contains("fork-cap  Cedar/Keyboard"), "{stdout}");
    let case_file = StoredCase::corpus(Path::new(dir)).expect("fuzz out dir")[0].clone();
    let case = StoredCase::load(&case_file).expect("a stored case");
    let signature = case.signature;
    let original_decisions = case.schedule.decisions.len();
    assert!(
        original_decisions >= 1,
        "expected recorded decisions, got {original_decisions}"
    );

    // Shrink: must reduce to <= 25% of the original injection decisions
    // while keeping the signature.
    let case_path = case_file.to_str().expect("a UTF-8 path");
    let (code, stdout, _) = run(&["shrink", case_path, "--max-replays", "40"]);
    assert_eq!(code, Some(0), "shrink failed:\n{}", stdout);
    assert!(stdout.contains("repro:"), "{}", stdout);
    let min_file = case_file.with_extension("min.json");
    let min_case = StoredCase::load(&min_file).expect("minimized case");
    assert_eq!(min_case.signature, signature);
    let min_decisions = min_case.schedule.decisions.len();
    assert!(
        min_decisions == 0 || min_decisions * 4 <= original_decisions,
        "shrink left {min_decisions} of {original_decisions} decisions"
    );

    // Replay the minimized schedule: same signature, exit 0.
    let (code, stdout, _) = run(&["replay", min_file.to_str().expect("a UTF-8 path")]);
    assert_eq!(code, Some(0), "replay failed:\n{}", stdout);
    assert!(stdout.contains("signature reproduced"), "{}", stdout);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn chaos_recover_supervises_both_demo_cells() {
    let (code, stdout, stderr) = run(&["chaos", "--recover", "--window", "6", "--seed", "c0ffee"]);
    assert_eq!(
        code,
        Some(0),
        "recover failed:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("supervised recovery"), "{stdout}");
    for cell in ["Cedar/Keyboard", "GVX/Scroll"] {
        assert!(stdout.contains(cell), "missing {cell}:\n{stdout}");
        assert!(stdout.contains("wedges"), "{stdout}");
    }
    // Both recovery levers should appear across the two cells.
    assert!(stderr.contains("fail-pending-forks"), "{stderr}");
    assert!(stderr.contains("rejuvenate"), "{stderr}");
}

#[test]
fn diff_schedule_names_the_stored_fault_sites() {
    let dir = &temp("repro-diff-sched");
    let (code, _, stderr) = run(&[
        "fuzz",
        "--budget",
        "2",
        "--workload",
        "gvx/scroll",
        "--window",
        "6",
        "--out",
        dir,
    ]);
    assert_eq!(code, Some(0), "fuzz failed:\n{}", stderr);
    let case_file = StoredCase::corpus(Path::new(dir)).expect("fuzz out dir")[0].clone();

    // Two identical clean traces: diff is clean, but --schedule still
    // names what the stored schedule would inject.
    let (t1, t2) = (temp("sched-clean1.jsonl"), temp("sched-clean2.jsonl"));
    for p in [&t1, &t2] {
        let (code, _, _) = run(&["trace", "--window", "1", "--seed", "77", "--jsonl", p]);
        assert_eq!(code, Some(0));
    }
    let case_path = case_file.to_str().expect("a UTF-8 path");
    let (code, stdout, _) = run(&["diff", &t1, &t2, "--schedule", case_path]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("injected fault site:"), "{stdout}");
    assert!(stdout.contains("gated on holding gvx-screen"), "{stdout}");
    for p in [&t1, &t2] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_mesh_case_is_labelled_by_its_world_and_a_zero_slice_is_refused() {
    let dir = temp("repro-mesh-case");
    std::fs::create_dir_all(&dir).unwrap();
    let mesh = r#"{"v": 2, "world": "mp:2", "seed": "5eed", "window_us": 6000000,
        "slice_us": 250000, "wedge_threshold_us": 1500000, "max_threads": null,
        "policy": "rr", "intensity": "mp-mesh", "signature": "deadlock:[teller#(monitor)x4]",
        "decisions": [], "stalls": []}"#;
    let case = format!("{dir}/mesh.json");
    std::fs::write(&case, mesh).unwrap();
    let (code, stdout, stderr) = run(&["replay", &case]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(
        stdout.starts_with("replay: mp:2 seed=5eed failed"),
        "{stdout}"
    );
    let described = bench::resilience_cli::describe_schedule(Path::new(&case)).unwrap();
    let want = format!("schedule {case}: mp:2 seed=5eed, 0 decision(s)");
    assert!(described.starts_with(&want), "{described}");

    // A zero slice would never end the trial: refused on load, never run.
    let zero = format!("{dir}/zero-slice.json");
    std::fs::write(
        &zero,
        mesh.replace("\"slice_us\": 250000", "\"slice_us\": 0"),
    )
    .unwrap();
    let (code, _, stderr) = run(&["replay", &zero]);
    assert_eq!(code, Some(6), "{stderr}");
    assert!(stderr.contains("slice_us: must be positive"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_subcommand_is_clean_and_writes_json() {
    let json = temp("threadlint.json");
    let (code, stdout, stderr) = run(&["lint", "--json", &json]);
    assert_eq!(code, Some(0), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("self-census"), "{stdout}");
    assert!(stdout.contains("0 unallowed"), "{stdout}");
    let doc = std::fs::read_to_string(&json).expect("json artifact");
    std::fs::remove_file(&json).ok();
    assert!(doc.contains("\"ok\": true"), "{doc:.>200}");
}
