//! `repro lint`: runs the `threadlint` static analyzer over the
//! workspace's own sources, prints the self-census, and fails on an
//! unallowed finding or a lint that has gone blind.
//!
//! This is the paper's Table-4 methodology turned back on the
//! reproduction itself: the same static sweep the authors ran over
//! 2.5 MLoC of Mesa, here over the crates that model it, plus the
//! §5.3/§5.4/§2.6 discipline lints Mesa's compiler would have enforced.
//!
//! Three optional outputs ride on the sweep:
//!
//! - `--sarif PATH`: SARIF 2.1.0 export for code-scanning upload.
//! - `--baseline PATH`: two-sided ratchet against a committed finding
//!   inventory — a finding missing from the baseline fails (new debt),
//!   and a baseline entry with no matching finding fails (stale entry
//!   hiding progress). `--write-baseline` regenerates the file.
//! - `--confirm DIR`: replays the stored resilience corpus in `DIR` and
//!   classifies every static finding as *confirmed* (a replayed failure
//!   strands threads on the flagged monitors, or strands the flagged
//!   thread), *plausible* (the flagged monitors were live in a replayed
//!   world), or *unreached* (no dynamic echo). Static names are source
//!   bindings; runtime names are construction literals with instance
//!   numbers — both sides fold interpolations and digit runs to `#`
//!   (`threadlint::normalize_literal`) before the join, so
//!   `accounts[a]` meets `account0`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use threadlint::{analyze_workspace, workspace_root, Analysis, Finding, Lint};

use crate::exit;

/// Options for [`run`]; all independent, all off by default.
#[derive(Default)]
pub struct LintOpts {
    /// Write the JSON findings artifact here.
    pub json: Option<String>,
    /// Write a SARIF 2.1.0 log here.
    pub sarif: Option<String>,
    /// Ratchet findings against this baseline file.
    pub baseline: Option<String>,
    /// With `baseline`: regenerate the file instead of checking it.
    pub write_baseline: bool,
    /// Replay the stored corpus in this directory and cross-validate.
    pub confirm: Option<String>,
}

/// Runs the analyzer, prints the census and findings, handles the
/// optional artifacts, and returns the exit code: [`exit::HAZARD`] on any
/// unallowed finding, a lint that fires nowhere in `mistakes`, a
/// baseline delta, or an unreadable corpus, [`exit::IO`] if an artifact
/// cannot be written or the baseline cannot be read.
pub fn run(opts: &LintOpts) -> i32 {
    let root = workspace_root();
    let analysis = match analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "FAIL lint: cannot scan workspace at {}: {e}",
                root.display()
            );
            return exit::HAZARD;
        }
    };
    let mut failed = false;
    let mut written = exit::OK;

    println!("{}", threadlint::census_table(&analysis).to_text());
    if analysis.findings.is_empty() {
        println!("Discipline findings: none");
    } else {
        println!("{}", threadlint::findings_table(&analysis).to_text());
    }
    let unallowed: Vec<_> = analysis.unallowed().collect();
    if !unallowed.is_empty() {
        for f in &unallowed {
            eprintln!(
                "FAIL {} ({}) {}:{} {}",
                f.lint,
                f.lint.paper_section(),
                f.file,
                f.line,
                f.message
            );
        }
        failed = true;
    }

    // Every lint must still be *exercised* by the deliberate mistakes:
    // an analyzer that stops firing is as wrong as one that over-fires.
    for lint in Lint::ALL {
        let fired = analysis
            .findings_in("crates/paradigms/src/mistakes.rs")
            .iter()
            .any(|f| f.lint == lint);
        if !fired {
            eprintln!(
                "FAIL lint self-test: {lint} found nothing in paradigms::mistakes — \
                 the lint has gone blind"
            );
            failed = true;
        }
    }

    if let Some(path) = &opts.json {
        let doc = threadlint::to_json(&analysis).pretty();
        written = exit::worst(written, exit::write(path, doc));
    }

    if let Some(path) = &opts.sarif {
        let sarif = threadlint::to_sarif(&analysis).pretty();
        written = exit::worst(written, exit::write(path, sarif));
    }

    if let Some(path) = &opts.baseline {
        if opts.write_baseline {
            let doc = trace::Json::obj([("findings", trace::Json::from(baseline_keys(&analysis)))]);
            written = exit::worst(written, exit::write(path, doc.pretty()));
        } else {
            match trace::Json::load(path, baseline_findings) {
                Ok(stored) => failed |= baseline_ratchet(&analysis, &stored, Path::new(path)),
                Err(e) => {
                    eprintln!("FAIL baseline: {e}");
                    written = exit::worst(written, exit::IO);
                }
            }
        }
    }

    if let Some(dir) = &opts.confirm {
        failed |= confirm(&analysis, Path::new(dir));
    }

    let allowed = analysis.findings.len() - unallowed.len();
    println!(
        "threadlint: {} files, {} primitive sites, {} findings ({} allowed, {} unallowed)",
        analysis.files.len(),
        analysis.sites.len(),
        analysis.findings.len(),
        allowed,
        unallowed.len()
    );
    exit::worst(if failed { exit::HAZARD } else { exit::OK }, written)
}

/// The baseline's keys: `lint|file|message` with digit runs folded, so
/// line drift does not churn the file but a new finding (or a fixed one)
/// always shows up as a delta.
fn baseline_keys(a: &Analysis) -> Vec<String> {
    let mut keys: Vec<String> = a.findings.iter().map(threadlint::baseline_key).collect();
    keys.sort();
    keys.dedup();
    keys
}

/// The finding keys of a baseline file written by `--write-baseline`: a
/// document whose `findings` is an array of strings.
pub fn baseline_findings(doc: &trace::Json) -> Result<BTreeSet<String>, String> {
    let keys = doc.arr_at("findings", |k| k.str_at("").map(str::to_string))?;
    Ok(keys.into_iter().collect())
}

/// The two-sided baseline ratchet: `true` if a finding is missing from
/// `stored`, the keys of the file at `path`, or `stored` holds one that
/// no longer fires.
fn baseline_ratchet(a: &Analysis, stored: &BTreeSet<String>, path: &Path) -> bool {
    let keys = baseline_keys(a);
    let current: BTreeSet<String> = keys.into_iter().collect();
    let mut failed = false;
    for k in current.difference(stored) {
        eprintln!(
            "FAIL baseline: new finding not in {}: {k} \
             (annotate or fix, then regenerate with --write-baseline)",
            path.display()
        );
        failed = true;
    }
    for k in stored.difference(&current) {
        eprintln!(
            "FAIL baseline: stale entry in {} (finding no longer fires): {k} \
             (regenerate with --write-baseline to bank the progress)",
            path.display()
        );
        failed = true;
    }
    if !failed {
        println!(
            "Baseline: {} findings match {} exactly",
            current.len(),
            path.display()
        );
    }
    failed
}

/// How strongly the corpus echoes one static finding.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Echo {
    Confirmed,
    Plausible,
    Unreached,
}

impl Echo {
    fn label(self) -> &'static str {
        match self {
            Echo::Confirmed => "CONFIRMED",
            Echo::Plausible => "plausible",
            Echo::Unreached => "unreached",
        }
    }
}

/// The runtime-name set a finding's monitors could appear under: each
/// binding maps through the construction-literal index when the scan
/// found one, and falls back to its own (normalized) spelling.
fn runtime_names(f: &Finding, literals: &BTreeMap<String, BTreeSet<String>>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for m in &f.monitors {
        match literals.get(m) {
            Some(lits) => names.extend(lits.iter().cloned()),
            None => {
                names.insert(resilience::normalize_name(m));
            }
        }
    }
    names
}

/// Replays the stored corpus and classifies every finding. Returns
/// `true` only when the corpus itself is unusable — classification is
/// a report, not a gate (an unreached finding is information, not a
/// regression).
fn confirm(a: &Analysis, dir: &Path) -> bool {
    let evidence = match resilience::corpus_evidence(dir) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("FAIL confirm: {e}");
            return true;
        }
    };
    let failing = evidence.iter().filter(|e| e.signature.is_some()).count();
    println!(
        "\nConfirm: replayed {} corpus case(s) from {} ({} failing)",
        evidence.len(),
        dir.display(),
        failing
    );
    let literals = threadlint::monitor_literals(a);

    let mut findings: Vec<&Finding> = a.findings.iter().collect();
    findings.sort_by_key(|f| (f.file.clone(), f.line, f.lint));
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    for f in findings {
        let names = runtime_names(f, &literals);
        let thread = f.thread.as_deref().map(threadlint::normalize_literal);
        let mut echo = Echo::Unreached;
        let mut witness = String::new();
        for e in &evidence {
            if e.signature.is_some() {
                if let Some(r) = names.iter().find(|n| e.resources.contains(n)) {
                    echo = Echo::Confirmed;
                    witness = format!("blocked on `{r}` in {}", e.case_file);
                    break;
                }
                if let Some(t) = thread.as_ref().filter(|t| e.parties.contains(t)) {
                    echo = Echo::Confirmed;
                    witness = format!("stranded thread `{t}` in {}", e.case_file);
                    break;
                }
            }
            if echo == Echo::Unreached {
                if let Some(m) = names.iter().find(|n| e.monitors.contains(n)) {
                    echo = Echo::Plausible;
                    witness = format!("monitor `{m}` live in {}", e.case_file);
                    // keep scanning: a later case may confirm
                }
            }
        }
        *tally.entry(echo.label()).or_default() += 1;
        println!(
            "  {:<9} {:<28} {}:{}{}",
            echo.label(),
            f.lint.name(),
            f.file,
            f.line,
            if witness.is_empty() {
                String::new()
            } else {
                format!("  [{witness}]")
            }
        );
    }
    let total: usize = tally.values().sum();
    println!(
        "Precision: {} confirmed, {} plausible, {} unreached of {} findings",
        tally.get(Echo::Confirmed.label()).copied().unwrap_or(0),
        tally.get(Echo::Plausible.label()).copied().unwrap_or(0),
        tally.get(Echo::Unreached.label()).copied().unwrap_or(0),
        total
    );
    false
}
