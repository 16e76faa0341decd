//! # threadlint — static thread-discipline analysis, self-hosted
//!
//! The paper's Table 4 came from a *static* pass: the authors grepped
//! 2.5 MLoC of Mesa for thread-primitive uses and hand-classified ~650
//! fork sites. This crate reproduces that methodology against the
//! workspace's **own** sources:
//!
//! * a **self-census** of every thread-primitive call site (`fork*`,
//!   `spawn*`, `wait*`, `notify`/`broadcast`, monitor/CV creation,
//!   `yield*`, `enter`), keyed by crate/file/line and rendered as a
//!   Table-4-style report;
//! * a set of **discipline lints** mirroring the paper's mistake
//!   taxonomy (§5.3, §5.4, §2.6) — see [`lints`]. Mesa's compiler
//!   inserted monitor locking; Rust + `pcr` do not, so the lint layer
//!   is this reproduction's substitute for that enforcement.
//!
//! Deliberate anti-patterns (the `paradigms::mistakes` module) carry
//! `// threadlint: allow(<lint>)` annotations: the analyzer still
//! reports them, marked `allowed`, and only *unallowed* findings fail
//! the build. Everything is hand-rolled (a lexer and a structural
//! scanner, no `syn`), matching the workspace's deps-free posture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod lockset;
pub mod report;
pub mod scan;

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub use lints::{Finding, LockEdge};
pub use report::{
    baseline_key, census_table, findings_table, monitor_literals, normalize_literal, to_json,
    to_sarif,
};

/// The discipline lints, named after the paper's mistake taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// §5.3: `IF`-guarded WAIT with no re-check loop.
    WaitNotInLoop,
    /// §5.3: NOTIFY not traceable to a live guard scope.
    NakedNotify,
    /// §5.4: `let _ = …fork(…)` — fork failure ignored.
    ForkResultDiscarded,
    /// §5.3: CV with a timeout but no NOTIFY on any path.
    TimeoutNoNotify,
    /// §2.6: cycle in the nested monitor-acquisition graph.
    LockOrderCycle,
    /// §2.6/§4.4: acquisition-order cycle composed through call chains.
    LockOrderCycleTransitive,
    /// §5.3: a WAIT reachable with ≥ 2 monitors in the lockset — WAIT
    /// releases only the innermost.
    WaitWithOuterMonitor,
    /// §6.1: fork/join/sleep/long-work reached while holding a monitor.
    BlockingCallInMonitor,
}

impl Lint {
    /// All lints, in taxonomy order.
    pub const ALL: [Lint; 8] = [
        Lint::WaitNotInLoop,
        Lint::NakedNotify,
        Lint::ForkResultDiscarded,
        Lint::TimeoutNoNotify,
        Lint::LockOrderCycle,
        Lint::LockOrderCycleTransitive,
        Lint::WaitWithOuterMonitor,
        Lint::BlockingCallInMonitor,
    ];

    /// The interprocedural lints (the lockset analysis' output).
    pub const INTERPROCEDURAL: [Lint; 3] = [
        Lint::LockOrderCycleTransitive,
        Lint::WaitWithOuterMonitor,
        Lint::BlockingCallInMonitor,
    ];

    /// The kebab-case name used in `// threadlint: allow(…)`.
    pub fn name(self) -> &'static str {
        match self {
            Lint::WaitNotInLoop => "wait-not-in-loop",
            Lint::NakedNotify => "naked-notify",
            Lint::ForkResultDiscarded => "fork-result-discarded",
            Lint::TimeoutNoNotify => "timeout-no-notify",
            Lint::LockOrderCycle => "lock-order-cycle",
            Lint::LockOrderCycleTransitive => "lock-order-cycle-transitive",
            Lint::WaitWithOuterMonitor => "wait-with-outer-monitor",
            Lint::BlockingCallInMonitor => "blocking-call-in-monitor",
        }
    }

    /// The paper section the lint reproduces.
    pub fn paper_section(self) -> &'static str {
        match self {
            Lint::WaitNotInLoop | Lint::NakedNotify | Lint::TimeoutNoNotify => "§5.3",
            Lint::ForkResultDiscarded => "§5.4",
            Lint::LockOrderCycle => "§2.6",
            Lint::LockOrderCycleTransitive => "§2.6/§4.4",
            Lint::WaitWithOuterMonitor => "§5.3",
            Lint::BlockingCallInMonitor => "§6.1",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The census classification of one primitive call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrimKind {
    /// Thread creation: `fork*`, `spawn*`.
    Fork,
    /// Blocking waits: `wait` (the raw Mesa WAIT).
    Wait,
    /// Packaged re-check waits: `wait_until*`.
    WaitUntil,
    /// `notify`.
    Notify,
    /// `broadcast`.
    Broadcast,
    /// Monitor creation: `monitor` / `new_monitor` / `Monitor::new`.
    MonitorNew,
    /// Condition creation: `condition` / `new_condition`.
    ConditionNew,
    /// Monitor entry: `enter`.
    Enter,
    /// `yield_now` / `yield_but_not_to_me`.
    Yield,
}

impl PrimKind {
    /// All kinds, census-column order.
    pub const ALL: [PrimKind; 9] = [
        PrimKind::Fork,
        PrimKind::Wait,
        PrimKind::WaitUntil,
        PrimKind::Notify,
        PrimKind::Broadcast,
        PrimKind::MonitorNew,
        PrimKind::ConditionNew,
        PrimKind::Enter,
        PrimKind::Yield,
    ];

    /// Census column label.
    pub fn label(self) -> &'static str {
        match self {
            PrimKind::Fork => "FORK",
            PrimKind::Wait => "WAIT",
            PrimKind::WaitUntil => "WAIT-loop",
            PrimKind::Notify => "NOTIFY",
            PrimKind::Broadcast => "BROADCAST",
            PrimKind::MonitorNew => "MONITOR",
            PrimKind::ConditionNew => "CONDITION",
            PrimKind::Enter => "ENTER",
            PrimKind::Yield => "YIELD",
        }
    }

    /// Classifies a callee identifier, if it is a thread primitive.
    pub fn of_callee(callee: &str) -> Option<PrimKind> {
        Some(match callee {
            c if c.starts_with("fork") || c.starts_with("spawn") || c == "delayed_fork" => {
                PrimKind::Fork
            }
            "wait" => PrimKind::Wait,
            c if c.starts_with("wait_until") || c == "wait_timeout" => PrimKind::WaitUntil,
            "notify" | "notify_all" => PrimKind::Notify,
            "broadcast" => PrimKind::Broadcast,
            "monitor" | "new_monitor" => PrimKind::MonitorNew,
            "condition" | "new_condition" => PrimKind::ConditionNew,
            "enter" => PrimKind::Enter,
            "yield_now" | "yield_but_not_to_me" => PrimKind::Yield,
            _ => return None,
        })
    }
}

/// One thread-primitive call site in the self-census.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CensusSite {
    /// Census classification.
    pub kind: PrimKind,
    /// The callee identifier as written.
    pub callee: String,
    /// Crate the site lives in.
    pub krate: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// First string literal among the arguments (fork-site names).
    pub name_literal: Option<String>,
}

/// One analyzed file: the cleaned text plus its structural scan.
#[derive(Clone, Debug)]
pub struct FileScan {
    /// Crate the file belongs to (directory under `crates/`, or the
    /// root package name).
    pub krate: String,
    /// Workspace-relative path.
    pub path: String,
    /// Cleaned source.
    pub clean: lexer::CleanSource,
    /// Structural scan.
    pub scan: scan::Scan,
    /// Clone/move aliases, each name mapped to its root
    /// (`lints::alias_map`), built once per file.
    pub(crate) aliases: BTreeMap<String, String>,
}

/// The full analysis of a workspace.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Every analyzed file.
    pub files: Vec<FileScan>,
    /// The self-census: every primitive call site.
    pub sites: Vec<CensusSite>,
    /// Every lint finding (allowed ones included, marked).
    pub findings: Vec<Finding>,
}

impl Analysis {
    /// Findings not covered by an allow annotation.
    pub fn unallowed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed)
    }

    /// Findings (allowed or not) within one file, by suffix match.
    pub fn findings_in(&self, path_suffix: &str) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.file.ends_with(path_suffix))
            .collect()
    }
}

/// Analyzes one in-memory source file (for tests and tools).
pub fn analyze_str(krate: &str, path: &str, src: &str) -> FileScan {
    let clean = lexer::clean(src);
    let scan = scan::scan(&clean);
    let aliases = lints::alias_map(&clean, &scan);
    FileScan {
        krate: krate.to_string(),
        path: path.to_string(),
        clean,
        scan,
        aliases,
    }
}

/// The workspace root this crate was built in, for self-hosted runs.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/threadlint has a workspace root two levels up")
        .to_path_buf()
}

/// Source directories scanned, relative to the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Analyzes every `.rs` file in the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut paths = Vec::new();
    for dir in SCAN_ROOTS {
        collect_rs(&root.join(dir), &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::new();
    for p in &paths {
        let src = std::fs::read_to_string(p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(analyze_str(&crate_of(&rel), &rel, &src));
    }
    let sites = collect_census(&files);
    let findings = lints::run_all(&files);
    Ok(Analysis {
        files,
        sites,
        findings,
    })
}

/// Crate name for a workspace-relative path: `crates/pcr/src/x.rs` →
/// `pcr`; root files → `threadstudy`.
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        _ => "threadstudy".to_string(),
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Builds the self-census from the per-file scans.
fn collect_census(files: &[FileScan]) -> Vec<CensusSite> {
    let mut sites = Vec::new();
    for f in files {
        for c in &f.scan.calls {
            if c.is_def {
                continue;
            }
            let Some(kind) = PrimKind::of_callee(&c.callee) else {
                continue;
            };
            let name_literal = f
                .clean
                .strings
                .iter()
                .find(|s| s.offset >= c.args_start && s.offset < c.args_end)
                .map(|s| s.value.clone());
            sites.push(CensusSite {
                kind,
                callee: c.callee.clone(),
                krate: f.krate.clone(),
                file: f.path.clone(),
                line: c.line,
                name_literal,
            });
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_names_round_trip() {
        for l in Lint::ALL {
            assert!(l.name().chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert!(l.paper_section().starts_with('§'));
        }
    }

    #[test]
    fn prim_kind_classification() {
        assert_eq!(PrimKind::of_callee("fork_prio"), Some(PrimKind::Fork));
        assert_eq!(PrimKind::of_callee("spawn_slack"), Some(PrimKind::Fork));
        assert_eq!(PrimKind::of_callee("wait"), Some(PrimKind::Wait));
        assert_eq!(PrimKind::of_callee("wait_until"), Some(PrimKind::WaitUntil));
        assert_eq!(PrimKind::of_callee("notify"), Some(PrimKind::Notify));
        assert_eq!(
            PrimKind::of_callee("new_monitor"),
            Some(PrimKind::MonitorNew)
        );
        assert_eq!(PrimKind::of_callee("yield_now"), Some(PrimKind::Yield));
        assert_eq!(PrimKind::of_callee("with_mut"), None);
    }

    #[test]
    fn census_extracts_name_literals() {
        let f = analyze_str(
            "w",
            "w/src/x.rs",
            "fn f(ctx: &ThreadCtx) { let h = ctx.fork_prio(\"W.Pump\", p, body); }",
        );
        let sites = collect_census(&[f]);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, PrimKind::Fork);
        assert_eq!(sites[0].name_literal.as_deref(), Some("W.Pump"));
    }

    #[test]
    fn crate_names_from_paths() {
        assert_eq!(crate_of("crates/pcr/src/lib.rs"), "pcr");
        assert_eq!(crate_of("tests/properties.rs"), "threadstudy");
        assert_eq!(crate_of("src/lib.rs"), "threadstudy");
    }
}
