//! Black-box tests of the `repro` binary's argument handling.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn unknown_command_prints_usage_and_exits_nonzero() {
    let out = repro()
        .arg("no-such-command")
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "exit code: {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown command: no-such-command"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: repro"), "{stderr}");
}

#[test]
fn help_prints_usage_and_succeeds() {
    for arg in ["help", "--help", "-h"] {
        let out = repro().arg(arg).output().expect("spawn repro");
        assert!(out.status.success(), "{arg}: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: repro"), "{arg}: {stdout}");
        assert!(stdout.contains("lint"), "{arg}: {stdout}");
    }
}

#[test]
fn help_lists_every_documented_subcommand() {
    // The README quickstart documents these; `repro help` must list
    // each one so the docs and the binary cannot drift apart.
    let out = repro().arg("help").output().expect("spawn repro");
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "tables",
        "table4",
        "figures",
        "experiments",
        "history",
        "contention",
        "trace",
        "diff",
        "chaos",
        "fuzz",
        "shrink",
        "replay",
        "lint",
        "markdown",
        "bench",
        "serve",
        "tournament",
        "all",
        "help",
    ] {
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

/// Structural validation of a Chrome trace-event file: valid JSON, the
/// object form with a traceEvents array, every X span with non-negative
/// dur, and per-track monotonically non-decreasing timestamps.
fn validate_chrome(text: &str) {
    let doc = trace::Json::parse(text).expect("chrome trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(trace::Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "empty trace");
    let mut last_ts: std::collections::BTreeMap<(u64, u64), u64> =
        std::collections::BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(trace::Json::as_str).expect("ph");
        assert!(
            ["X", "i", "s", "f", "M"].contains(&ph),
            "unexpected phase {ph:?}"
        );
        if ph == "M" {
            continue;
        }
        let pid = e.get("pid").and_then(trace::Json::as_u64).expect("pid");
        let tid = e.get("tid").and_then(trace::Json::as_u64).expect("tid");
        let ts = e.get("ts").and_then(trace::Json::as_u64).expect("ts");
        if ph == "X" {
            assert!(
                e.get("dur").and_then(trace::Json::as_u64).is_some(),
                "X without dur"
            );
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
    let dir = std::env::temp_dir();
    let p1 = dir.join(format!("chrome-a-{}.json", std::process::id()));
    let p2 = dir.join(format!("chrome-b-{}.json", std::process::id()));
    for p in [&p1, &p2] {
        let out = repro()
            .args(["trace", "--window", "2", "--seed", "abc123", "--chrome"])
            .arg(p)
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
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
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let clean1 = dir.join(format!("clean1-{pid}.jsonl"));
    let clean2 = dir.join(format!("clean2-{pid}.jsonl"));
    let chaos = dir.join(format!("chaos-{pid}.jsonl"));
    for (path, extra) in [(&clean1, false), (&clean2, false), (&chaos, true)] {
        let mut cmd = repro();
        cmd.args(["trace", "--window", "2", "--seed", "77", "--jsonl"]);
        cmd.arg(path);
        if extra {
            cmd.arg("--chaos");
        }
        let out = cmd.output().expect("spawn repro");
        assert!(
            out.status.success(),
            "stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Identical-seed clean runs: zero deltas, exit 0.
    let out = repro()
        .arg("diff")
        .args([&clean1, &clean2])
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean diff failed:\n{stdout}");
    assert!(stdout.contains("no deltas"), "{stdout}");

    // Chaos vs clean: the dedicated diff-delta exit code, at least one
    // named fault site.
    let out = repro()
        .arg("diff")
        .args([&clean1, &chaos])
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(4), "chaos diff exit:\n{stdout}");
    assert!(stdout.contains("injected fault site:"), "{stdout}");

    for p in [&clean1, &clean2, &chaos] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn diff_of_a_file_of_brackets_is_a_parse_error_not_a_stack_overflow() {
    let path = std::env::temp_dir().join(format!("brackets-{}.jsonl", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let out = repro()
        .arg("diff")
        .args([&path, &path])
        .output()
        .expect("spawn repro");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(6), "stderr:\n{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
}

/// Every subcommand that writes an output file, not only `trace`: an
/// unwritable path is one line and exit 6, never a panic.
#[test]
fn trace_to_an_unwritable_path_is_an_io_error_not_a_panic() {
    let fuzz_out = std::env::temp_dir().join(format!("unwritable-fuzz-{}", std::process::id()));
    let fuzz_out = fuzz_out.to_str().expect("UTF-8 temp dir");
    let x = "/nonexistent/x.json";
    for args in [
        &["trace", "--window", "1", "--chrome", x][..],
        &["trace", "--window", "1", "--jsonl", x],
        &["bench", "--reps", "1", "--window", "1", "--json", x],
        &["tournament", "--reference", "--window", "1", "--json", x],
        &["tables", "--window", "1", "--json", x],
        &["figures", "--window", "1", "--json", x],
        &["all", "--window", "1", "--json", x],
        &["lint", "--json", x],
        &["lint", "--sarif", x],
        &["lint", "--baseline", x, "--write-baseline"],
        &["serve", "--sessions", "200", "--json", x],
        &["chaos", "--recover", "--window", "1", "--json", x],
        &[
            "fuzz", "--budget", "1", "--window", "1", "--out", fuzz_out, "--stats", x,
        ],
    ] {
        let out = repro().args(args).output().expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(6), "{args:?} stderr:\n{stderr}");
        let cannot = stderr
            .lines()
            .filter(|l| l.starts_with("cannot write /nonexistent/"));
        assert_eq!(cannot.count(), 1, "{args:?} stderr:\n{stderr}");
    }
    std::fs::remove_dir_all(fuzz_out).ok();
}

#[test]
fn help_documents_the_exit_codes() {
    let out = repro().arg("help").output().expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exit codes:"), "{stdout}");
    for needle in ["diff deltas", "deadlock or wedge", "--expect"] {
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
        let out = repro()
            .args(["table4", "--seed", seed])
            .output()
            .expect("spawn repro");
        assert_eq!(
            out.status.code(),
            Some(2),
            "seed {seed:?}: {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "seed {seed:?}: expected {needle:?} in:\n{stderr}"
        );
    }
}

#[test]
fn bad_counts_are_rejected_with_an_explanation() {
    for (args, needle) in [
        (&["bench", "--reps", "0"][..], "must be at least 1"),
        (&["bench", "--reps", "-3"][..], "negative"),
        (
            &["bench", "--reps", "99999999999"][..],
            "does not fit a 32-bit count",
        ),
        (
            &["bench", "--reps", "18446744073709551616"][..],
            "does not fit a 64-bit count",
        ),
        (&["tables", "--window", "junk"][..], "positive integer"),
        (&["serve", "--sessions", "0"][..], "must be at least 1"),
        (&["serve", "--reps", "three"][..], "positive integer"),
        (&["serve", "--slo-p99-ms", "-1"][..], "negative"),
        (&["bench", "--workers", "0"][..], "positive integer"),
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
        (&["bench", "--json"][..], "expected a value"),
        (&["tables", "--window"][..], "expected a value"),
    ] {
        let out = repro().args(args).output().expect("spawn repro");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
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
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let mut reports = Vec::new();
    for (tag, workers) in [("a", "1"), ("b", "4")] {
        let path = dir.join(format!("serve-{tag}-{pid}.json"));
        let out = repro()
            .args(["serve", "--sessions", "1200", "--seed", "A5"])
            .args(["--reps", "2", "--workers", workers, "--json"])
            .arg(&path)
            .output()
            .expect("spawn repro");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
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
    let out = repro()
        .args(["serve", "--sessions", "800", "--seed", "A5"])
        .args(["--slo-p99-ms", "1"])
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(8),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stderr.contains("SLO breach"), "{stderr}");
}

#[test]
fn serve_baseline_catches_a_planted_regression() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path = dir.join(format!("serve-base-{pid}.json"));
    let out = repro()
        .args(["serve", "--sessions", "800", "--seed", "A5", "--json"])
        .arg(&path)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Same cell vs its own report: clean.
    let out = repro()
        .args(["serve", "--sessions", "800", "--seed", "A5", "--baseline"])
        .arg(&path)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "self-baseline:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Plant a much better baseline: current goodput now looks regressed.
    let text = std::fs::read_to_string(&path).expect("baseline");
    let doc = trace::Json::parse(&text).expect("baseline json");
    let goodput = doc
        .get("goodput_per_sec")
        .and_then(trace::Json::as_f64)
        .expect("goodput");
    let planted = text.replacen(
        &format!("\"goodput_per_sec\":{goodput}"),
        &format!("\"goodput_per_sec\":{}", goodput * 10.0),
        1,
    );
    assert_ne!(planted, text, "failed to plant the regression");
    std::fs::write(&path, planted).unwrap();
    let out = repro()
        .args(["serve", "--sessions", "800", "--seed", "A5", "--baseline"])
        .arg(&path)
        .output()
        .expect("spawn repro");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        out.status.code(),
        Some(5),
        "planted baseline:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("goodput"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_baseline_without_a_gated_field_is_a_parse_error() {
    let path = std::env::temp_dir().join(format!("serve-cut-{}.json", std::process::id()));
    let out = repro()
        .args(["serve", "--sessions", "800", "--seed", "A5", "--json"])
        .arg(&path)
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "{:?}", out.status);
    // Cut the goodput field out: the gate must refuse the file, not
    // compare against a goodput of zero that no run can regress from.
    let text = std::fs::read_to_string(&path).expect("baseline");
    let at = text.find("\"goodput_per_sec\":").expect("goodput field");
    let end = at + text[at..].find(',').expect("field separator") + 1;
    std::fs::write(&path, format!("{}{}", &text[..at], &text[end..])).unwrap();
    let out = repro()
        .args(["serve", "--sessions", "800", "--seed", "A5", "--baseline"])
        .arg(&path)
        .output()
        .expect("spawn repro");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(6), "{stderr}");
    assert!(stderr.contains("goodput_per_sec"), "{stderr}");
}

#[test]
fn removed_duplicate_flags_are_not_in_help_and_serve_rejects_chaos() {
    let out = repro().arg("help").output().expect("spawn repro");
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(!help.contains("--serial"), "{help}");
    assert!(!help.contains("--chaos outage"), "{help}");
    assert!(help.contains("[--chaos]"), "trace keeps its boolean");
    // The old spelling must not fall through to the reference scenario.
    let out = repro()
        .args(["serve", "--sessions", "800", "--chaos", "outage"])
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--scenario outage"), "{stderr}");
}

#[test]
fn fuzz_shrink_replay_round_trip() {
    let dir = std::env::temp_dir().join(format!("repro-fuzz-{}", std::process::id()));
    // Budget 2 on the Cedar/Keyboard cell covers the tolerated preset
    // rung and the guaranteed fork-cap failure.
    let out = repro()
        .args(["fuzz", "--budget", "2", "--workload", "cedar/keyboard"])
        .args(["--window", "4", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fuzz failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("1 unique signature(s)"), "{stdout}");
    let case_file = std::fs::read_dir(&dir)
        .expect("fuzz out dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("a stored case");
    let case_text = std::fs::read_to_string(&case_file).expect("case file");
    let case = trace::Json::parse(&case_text).expect("case json");
    let signature = case
        .get("signature")
        .and_then(trace::Json::as_str)
        .expect("signature field")
        .to_string();
    let original_decisions = case
        .get("decisions")
        .and_then(trace::Json::as_array)
        .expect("decisions")
        .len();
    assert!(
        original_decisions >= 1,
        "expected recorded decisions, got {original_decisions}"
    );

    // Shrink: must reduce to <= 25% of the original injection decisions
    // while keeping the signature.
    let out = repro()
        .arg("shrink")
        .arg(&case_file)
        .args(["--max-replays", "40"])
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "shrink failed:\n{stdout}");
    assert!(stdout.contains("repro:"), "{stdout}");
    let min_file = case_file.with_extension("min.json");
    let min_text = std::fs::read_to_string(&min_file).expect("minimized case");
    let min_case = trace::Json::parse(&min_text).expect("minimized json");
    assert_eq!(
        min_case.get("signature").and_then(trace::Json::as_str),
        Some(signature.as_str())
    );
    let min_decisions = min_case
        .get("decisions")
        .and_then(trace::Json::as_array)
        .expect("decisions")
        .len();
    assert!(
        min_decisions == 0 || min_decisions * 4 <= original_decisions,
        "shrink left {min_decisions} of {original_decisions} decisions"
    );

    // Replay the minimized schedule: same signature, exit 0.
    let out = repro()
        .arg("replay")
        .arg(&min_file)
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "replay failed:\n{stdout}");
    assert!(stdout.contains("signature reproduced"), "{stdout}");

    // The expected-signature gate: a matching file passes, a bogus one
    // exits with the new-failure code.
    let expect_ok = dir.join("expected.txt");
    std::fs::write(&expect_ok, format!("# known failures\n{signature}\n")).unwrap();
    let expect_stale = dir.join("stale.txt");
    std::fs::write(&expect_stale, "wedge:[somebody-else(monitor)]\n").unwrap();
    for (expect, want) in [(&expect_ok, Some(0)), (&expect_stale, Some(7))] {
        let out = repro()
            .args(["fuzz", "--budget", "2", "--workload", "cedar/keyboard"])
            .args(["--window", "4", "--out"])
            .arg(&dir)
            .arg("--expect")
            .arg(expect)
            .output()
            .expect("spawn repro");
        assert_eq!(
            out.status.code(),
            want,
            "expect file {expect:?}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_recover_supervises_both_demo_cells() {
    let out = repro()
        .args(["chaos", "--recover", "--window", "6", "--seed", "c0ffee"])
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
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
    let dir = std::env::temp_dir().join(format!("repro-diff-sched-{}", std::process::id()));
    let out = repro()
        .args(["fuzz", "--budget", "2", "--workload", "gvx/scroll"])
        .args(["--window", "6", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "fuzz failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let case_file = std::fs::read_dir(&dir)
        .expect("fuzz out dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("a stored case");

    // Two identical clean traces: diff is clean, but --schedule still
    // names what the stored schedule would inject.
    let pid = std::process::id();
    let t1 = std::env::temp_dir().join(format!("sched-clean1-{pid}.jsonl"));
    let t2 = std::env::temp_dir().join(format!("sched-clean2-{pid}.jsonl"));
    for p in [&t1, &t2] {
        let out = repro()
            .args(["trace", "--window", "1", "--seed", "77", "--jsonl"])
            .arg(p)
            .output()
            .expect("spawn repro");
        assert!(out.status.success());
    }
    let out = repro()
        .arg("diff")
        .args([&t1, &t2])
        .arg("--schedule")
        .arg(&case_file)
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("injected fault site:"), "{stdout}");
    assert!(stdout.contains("gated on holding gvx-screen"), "{stdout}");
    for p in [&t1, &t2] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_subcommand_is_clean_and_writes_json() {
    let json = std::env::temp_dir().join(format!("threadlint-{}.json", std::process::id()));
    let out = repro()
        .args(["lint", "--json"])
        .arg(&json)
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("self-census"), "{stdout}");
    assert!(stdout.contains("0 unallowed"), "{stdout}");
    let doc = std::fs::read_to_string(&json).expect("json artifact");
    std::fs::remove_file(&json).ok();
    assert!(doc.contains("\"ok\": true"), "{doc:.>200}");
}
