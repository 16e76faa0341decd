//! Report rendering: the Table-4-style self-census, the findings
//! table, the JSON and SARIF exports, and the monitor-literal index
//! `repro lint --confirm` joins against runtime names.
//!
//! The paper's Table 4 classified ~650 fork sites found by a static
//! sweep of 2.5 MLoC. Here the sweep runs over this workspace's own
//! sources.

use std::collections::{BTreeMap, BTreeSet};

use trace::{Json, Table};

use crate::{Analysis, PrimKind};

/// Renders the self-census as a Table-4-style per-crate table: one row
/// per crate, one column per primitive kind, plus totals.
pub fn census_table(a: &Analysis) -> Table {
    let mut per_crate: BTreeMap<&str, BTreeMap<PrimKind, usize>> = BTreeMap::new();
    for s in &a.sites {
        *per_crate
            .entry(s.krate.as_str())
            .or_default()
            .entry(s.kind)
            .or_insert(0) += 1;
    }
    let mut headers = vec!["Crate"];
    headers.extend(PrimKind::ALL.iter().map(|k| k.label()));
    headers.push("Total");
    let mut t = Table::new(
        "Thread-primitive call sites by crate (self-census, cf. Table 4)",
        &headers,
    );
    let mut totals: BTreeMap<PrimKind, usize> = BTreeMap::new();
    for (krate, counts) in &per_crate {
        let mut row = vec![krate.to_string()];
        let mut sum = 0usize;
        for k in PrimKind::ALL {
            let n = counts.get(&k).copied().unwrap_or(0);
            *totals.entry(k).or_insert(0) += n;
            sum += n;
            row.push(n.to_string());
        }
        row.push(sum.to_string());
        t.row(row);
    }
    let mut row = vec!["total".to_string()];
    let mut sum = 0usize;
    for k in PrimKind::ALL {
        let n = totals.get(&k).copied().unwrap_or(0);
        sum += n;
        row.push(n.to_string());
    }
    row.push(sum.to_string());
    t.row(row);
    t
}

/// Renders the findings as a table: lint, location, status, message.
pub fn findings_table(a: &Analysis) -> Table {
    let mut t = Table::new(
        "Discipline findings",
        &["Lint", "§", "Site", "Status", "Message"],
    )
    .with_aligns(&[trace::Align::Left; 5]);
    for f in &a.findings {
        t.row(vec![
            f.lint.name().to_string(),
            f.lint.paper_section().trim_start_matches('§').to_string(),
            format!("{}:{}", f.file, f.line),
            if f.allowed { "allowed" } else { "FAIL" }.to_string(),
            f.message.clone(),
        ]);
    }
    t
}

/// Exports the analysis as a JSON document: census sites, per-crate
/// counts, findings, and summary totals — the machine-readable artifact
/// `repro lint --json` writes and CI uploads.
pub fn to_json(a: &Analysis) -> Json {
    let sites = Json::arr(a.sites.iter().map(|s| {
        Json::obj([
            ("kind", Json::from(s.kind.label())),
            ("callee", Json::from(s.callee.as_str())),
            ("crate", Json::from(s.krate.as_str())),
            ("file", Json::from(s.file.as_str())),
            ("line", Json::from(s.line)),
            ("name", Json::from(s.name_literal.clone())),
        ])
    }));
    let findings = Json::arr(a.findings.iter().map(|f| {
        Json::obj([
            ("lint", Json::from(f.lint.name())),
            ("section", Json::from(f.lint.paper_section())),
            ("crate", Json::from(f.krate.as_str())),
            ("file", Json::from(f.file.as_str())),
            ("line", Json::from(f.line)),
            ("allowed", Json::from(f.allowed)),
            ("message", Json::from(f.message.as_str())),
            ("monitors", Json::from(f.monitors.clone())),
            ("thread", Json::from(f.thread.clone())),
        ])
    }));
    let unallowed = a.unallowed().count();
    Json::obj([
        ("tool", Json::from("threadlint")),
        ("files", Json::from(a.files.len())),
        ("sites", sites),
        ("findings", findings),
        (
            "summary",
            Json::obj([
                ("site_count", Json::from(a.sites.len())),
                ("finding_count", Json::from(a.findings.len())),
                ("unallowed_count", Json::from(unallowed)),
                ("ok", Json::from(unallowed == 0)),
            ]),
        ),
    ])
}

/// Replaces digit runs with `#` so baseline keys survive line-number
/// churn inside messages.
fn squash_digits(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_digits = false;
    for c in s.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('#');
            }
            in_digits = true;
        } else {
            in_digits = false;
            out.push(c);
        }
    }
    out
}

/// The stable identity of a finding for the `ci/lint-baseline.json`
/// ratchet: lint, file, and the digit-squashed message (line numbers
/// move on every edit; the *shape* of a finding does not).
pub fn baseline_key(f: &crate::Finding) -> String {
    format!("{}|{}|{}", f.lint.name(), f.file, squash_digits(&f.message))
}

/// Exports the findings as a SARIF 2.1.0 document (one run, one rule
/// per lint). Allowed findings carry an `inSource` suppression and
/// level `note`; unallowed ones are `warning` — CI viewers render the
/// distinction natively.
pub fn to_sarif(a: &Analysis) -> Json {
    let rules = Json::arr(crate::Lint::ALL.iter().map(|l| {
        Json::obj([
            ("id", Json::from(l.name())),
            (
                "shortDescription",
                Json::obj([(
                    "text",
                    Json::from(format!("{} (paper {})", l.name(), l.paper_section())),
                )]),
            ),
        ])
    }));
    let results = Json::arr(a.findings.iter().map(|f| {
        let location = Json::obj([(
            "physicalLocation",
            Json::obj([
                (
                    "artifactLocation",
                    Json::obj([("uri", Json::from(f.file.as_str()))]),
                ),
                ("region", Json::obj([("startLine", Json::from(f.line))])),
            ]),
        )]);
        let mut r = Json::obj([
            ("ruleId", Json::from(f.lint.name())),
            (
                "level",
                Json::from(if f.allowed { "note" } else { "warning" }),
            ),
            (
                "message",
                Json::obj([("text", Json::from(f.message.as_str()))]),
            ),
            ("locations", Json::arr([location])),
        ]);
        if f.allowed {
            r.push(
                "suppressions",
                Json::arr([Json::obj([("kind", Json::from("inSource"))])]),
            );
        }
        r
    }));
    Json::obj([
        (
            "$schema",
            Json::from("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", Json::from("2.1.0")),
        (
            "runs",
            Json::arr([Json::obj([
                (
                    "tool",
                    Json::obj([(
                        "driver",
                        Json::obj([("name", Json::from("threadlint")), ("rules", rules)]),
                    )]),
                ),
                ("results", results),
            ])]),
        ),
    ])
}

/// Folds a source literal to the shape a runtime name takes once its
/// instance numbers are squashed: `{…}` interpolation groups and digit
/// runs both become `#`, so the static literal `window-{w}.damage` and
/// the runtime name `window-3.damage` both land on `window-#.damage`.
pub fn normalize_literal(lit: &str) -> String {
    let mut out = String::with_capacity(lit.len());
    let mut in_brace = false;
    for c in lit.chars() {
        match c {
            '{' if !in_brace => {
                in_brace = true;
                out.push('#');
            }
            '}' if in_brace => in_brace = false,
            _ if !in_brace => out.push(c),
            _ => {}
        }
    }
    squash_digits(&out)
}

/// Maps static monitor binding names to the runtime name literals they
/// were created with: `let screen = sim.monitor("gvx-screen", …)` maps
/// `screen` → `gvx-screen`, and the clone alias `screen_poller` maps
/// there too. Each literal goes through [`normalize_literal`] so it
/// compares against digit-squashed runtime names. This is the static
/// half of `repro lint --confirm`'s join.
pub fn monitor_literals(a: &Analysis) -> BTreeMap<String, BTreeSet<String>> {
    let mut map: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in &a.files {
        let mut local: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for c in
            f.scan.calls.iter().filter(|c| {
                !c.is_def && PrimKind::of_callee(&c.callee) == Some(PrimKind::MonitorNew)
            })
        {
            let Some(lit) = f
                .clean
                .strings
                .iter()
                .find(|s| s.offset >= c.args_start && s.offset < c.args_end)
            else {
                continue;
            };
            let Some(name) = crate::lints::cv_binding_name(f, c) else {
                continue;
            };
            local
                .entry(name)
                .or_default()
                .insert(normalize_literal(&lit.value));
        }
        for (k, root) in &f.aliases {
            if let Some(lits) = local.get(root).cloned() {
                local.entry(k.clone()).or_default().extend(lits);
            }
        }
        for (k, v) in local {
            map.entry(k).or_default().extend(v);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_str, lints, Analysis};

    fn analysis_of(files: Vec<(&str, &str, &str)>) -> Analysis {
        let files: Vec<_> = files
            .into_iter()
            .map(|(k, p, s)| analyze_str(k, p, s))
            .collect();
        let sites = crate::collect_census(&files);
        let findings = lints::run_all(&files);
        Analysis {
            files,
            sites,
            findings,
        }
    }

    #[test]
    fn census_table_counts_per_crate() {
        let a = analysis_of(vec![
            (
                "w",
                "crates/w/src/a.rs",
                "fn f(ctx: &ThreadCtx) { let h = ctx.fork(\"W.A\", b); let g = ctx.enter(m); }",
            ),
            (
                "x",
                "crates/x/src/b.rs",
                "fn f(g: &mut MonitorGuard<'_, u32>, cv: &Condition) { g.notify(cv); }",
            ),
        ]);
        let t = census_table(&a);
        let text = t.to_text();
        assert!(text.contains("FORK"), "{text}");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.last().unwrap().starts_with("total"), "{text}");
        assert_eq!(a.sites.len(), 3);
    }

    #[test]
    fn json_summary_reflects_findings() {
        let a = analysis_of(vec![(
            "w",
            "crates/w/src/a.rs",
            "fn f(ctx: &ThreadCtx) { let _ = ctx.fork(n, b); }",
        )]);
        let j = to_json(&a).to_string();
        assert!(j.contains("\"unallowed_count\":1"), "{j}");
        assert!(j.contains("\"ok\":false"), "{j}");
        assert!(j.contains("fork-result-discarded"), "{j}");
    }

    #[test]
    fn findings_table_marks_status() {
        let a = analysis_of(vec![(
            "w",
            "crates/w/src/a.rs",
            "fn f(ctx: &ThreadCtx) {\n\
             // threadlint: allow(fork-result-discarded)\n\
             let _ = ctx.fork(n, b);\n}",
        )]);
        let text = findings_table(&a).to_text();
        assert!(text.contains("allowed"), "{text}");
        assert!(!text.contains("FAIL"), "{text}");
    }
}
