//! `repro lint` as a test: the workspace must be lint-clean, every
//! lint must still fire on `paradigms::mistakes`, and the baseline,
//! JSON and SARIF artifacts must hold their shape. (threadlint's own
//! `selfcheck` suite covers the lints in isolation.)

use threadlint::{analyze_workspace, workspace_root};

#[test]
fn lint_run_reports_success() {
    // The full CLI path, minus the process boundary: census, lints,
    // self-test.
    assert_eq!(bench::lint::run(&Default::default()), bench::exit::OK);
}

#[test]
fn baseline_round_trips_and_ratchets_both_ways() {
    let dir = std::env::temp_dir().join(format!("lint-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline.json");
    let write = bench::lint::LintOpts {
        baseline: Some(path.to_string_lossy().into_owned()),
        write_baseline: true,
        ..Default::default()
    };
    assert_eq!(
        bench::lint::run(&write),
        bench::exit::OK,
        "writing the baseline must pass"
    );
    let check = bench::lint::LintOpts {
        baseline: Some(path.to_string_lossy().into_owned()),
        ..Default::default()
    };
    assert_eq!(
        bench::lint::run(&check),
        bench::exit::OK,
        "a freshly written baseline must match exactly"
    );
    // A stale entry (finding that no longer fires) must fail the check:
    // the ratchet is two-sided.
    let doc = std::fs::read_to_string(&path).unwrap();
    let salted = doc.replace(
        "\"findings\": [",
        "\"findings\": [\n    \"ghost-lint|nowhere.rs|never fired\",",
    );
    assert_ne!(doc, salted, "baseline artifact shape changed");
    std::fs::write(&path, salted).unwrap();
    assert_eq!(
        bench::lint::run(&check),
        bench::exit::HAZARD,
        "a stale baseline entry must fail the ratchet"
    );
    // JSON without a `findings` string array is a damaged baseline, not
    // an empty one that makes every finding new.
    std::fs::write(&path, "{\"finding\": []}").unwrap();
    assert_eq!(bench::lint::run(&check), bench::exit::IO);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_baseline_matches_current_findings() {
    // The file CI ratchets against must stay in lockstep with the
    // analyzer: any drift fails here first, with a regeneration hint.
    let path = workspace_root().join("ci/lint-baseline.json");
    let check = bench::lint::LintOpts {
        baseline: Some(path.to_string_lossy().into_owned()),
        ..Default::default()
    };
    assert_eq!(
        bench::lint::run(&check),
        bench::exit::OK,
        "ci/lint-baseline.json is out of date — regenerate with \
         `repro lint --baseline ci/lint-baseline.json --write-baseline`"
    );
}

#[test]
fn sarif_export_is_wellformed_and_complete() {
    let analysis = analyze_workspace(&workspace_root()).expect("workspace scan");
    let doc = threadlint::to_sarif(&analysis).to_string();
    let parsed = trace::Json::parse(&doc).expect("sarif parses");
    assert_eq!(parsed.arr_at("runs", Ok).map(|runs| runs.len()), Ok(1));
    let results = parsed.arr_at("runs.0.results", Ok).unwrap();
    assert_eq!(
        results.len(),
        analysis.findings.len(),
        "every finding must appear as a SARIF result"
    );
    // Allowed findings carry an in-source suppression; the workspace is
    // clean, so all of them do.
    for r in results {
        assert!(
            r.get("suppressions").is_some(),
            "workspace finding without suppression: {r}"
        );
    }
}

#[test]
fn lint_json_artifact_is_well_formed() {
    let analysis = analyze_workspace(&workspace_root()).expect("workspace scan");
    let doc = threadlint::to_json(&analysis).to_string();
    assert!(doc.contains("\"tool\":\"threadlint\""), "{doc:.>120}");
    assert!(doc.contains("\"ok\":true"), "workspace should be clean");
    // Every deliberate-mistake lint shows up in the export.
    for lint in threadlint::Lint::ALL {
        assert!(doc.contains(lint.name()), "missing {lint} in JSON export");
    }
}
