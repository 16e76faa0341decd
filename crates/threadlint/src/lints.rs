//! The discipline lints: the paper's mistake taxonomy, checked
//! statically.
//!
//! Each lint mirrors a failure mode the paper catalogues:
//!
//! | Lint | Paper | Mistake |
//! |------|-------|---------|
//! | `wait-not-in-loop` | §5.3 | `IF NOT cond THEN WAIT` with no re-check loop |
//! | `naked-notify` | §5.3 | a NOTIFY not lexically inside the critical section that established its predicate |
//! | `fork-result-discarded` | §5.4 | `let _ = …fork(…)` — fork failure silently ignored |
//! | `timeout-no-notify` | §5.3 | a CV that has a timeout but is never notified on any path: a timeout-driven system |
//! | `lock-order-cycle` | §2.6 | nested monitor entries whose global order graph has a cycle (ABBA) |
//!
//! Mesa's compiler enforced monitor discipline; Rust plus `pcr` does
//! not, so these lints are the reproduction's substitute. They are
//! lexical heuristics tuned to be *exact on this workspace*: zero
//! findings on disciplined code, and one finding per deliberate
//! anti-pattern in `paradigms::mistakes` (which carries
//! `// threadlint: allow(…)` annotations).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::CleanSource;
use crate::scan::{last_segment, normalize_arg, split_args, BlockKind, Call, Scan};
use crate::{FileScan, Lint, PrimKind};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Crate the file belongs to.
    pub krate: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// True when covered by a `// threadlint: allow(…)` annotation.
    pub allowed: bool,
    /// Static monitor names involved (empty for CV/fork lints) — the
    /// hook `repro lint --confirm` matches against dynamic evidence.
    pub monitors: Vec<String>,
    /// Thread-name literal of the innermost enclosing fork call, when
    /// the finding sits inside a forked closure body.
    pub thread: Option<String>,
}

/// Runs every per-file lint, the cross-file lock-order audit, and the
/// interprocedural lockset lints.
pub fn run_all(files: &[FileScan]) -> Vec<Finding> {
    let notified = notified_cv_names(files);
    let mut findings = Vec::new();
    for f in files {
        wait_not_in_loop(f, &mut findings);
        naked_notify(f, &mut findings);
        fork_result_discarded(f, &mut findings);
        timeout_no_notify(f, &notified, &mut findings);
        lock_order_cycles(f, &mut findings);
    }
    crate::lockset::run(files, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    findings
}

/// The name literal of the innermost fork call whose argument span
/// (the forked closure body) contains `off` — ties a static site to
/// the runtime thread that executes it.
pub(crate) fn enclosing_fork_name(f: &FileScan, off: usize) -> Option<String> {
    f.scan
        .calls
        .iter()
        .filter(|c| {
            !c.is_def
                && matches!(PrimKind::of_callee(&c.callee), Some(PrimKind::Fork))
                && c.args_start <= off
                && off < c.args_end
        })
        .max_by_key(|c| c.args_start)
        .and_then(|c| {
            f.clean
                .strings
                .iter()
                .find(|s| s.offset >= c.args_start && s.offset < c.args_end)
                .map(|s| s.value.clone())
        })
}

fn push(
    findings: &mut Vec<Finding>,
    f: &FileScan,
    lint: Lint,
    line: usize,
    off: usize,
    message: String,
) {
    findings.push(Finding {
        lint,
        krate: f.krate.clone(),
        file: f.path.clone(),
        line,
        message,
        allowed: f.clean.is_allowed(lint.name(), line),
        monitors: Vec::new(),
        thread: enclosing_fork_name(f, off),
    });
}

/// §5.3: a WAIT lexically inside an `if` arm with no enclosing loop in
/// the same activation — the predicate is checked once and never
/// re-checked after the wait returns. `wait_until` (the WHILE-loop
/// convention packaged) is always fine.
fn wait_not_in_loop(f: &FileScan, findings: &mut Vec<Finding>) {
    for c in f
        .scan
        .calls
        .iter()
        .filter(|c| c.callee == "wait" && !c.is_def)
    {
        // Only blocks inside the same activation (innermost fn/closure
        // body) count as context: block indices follow `{` order, so
        // "inside the body" is exactly "index greater than the body's".
        let body = f.scan.body_of(c.off);
        let mut in_if = false;
        let mut in_loop = false;
        for i in f.scan.ancestors(c.off) {
            if body.is_some_and(|b| i <= b) {
                continue;
            }
            match f.scan.blocks[i].kind {
                BlockKind::If => in_if = true,
                k if k.is_loop() => in_loop = true,
                _ => {}
            }
        }
        if in_if && !in_loop {
            push(
                findings,
                f,
                Lint::WaitNotInLoop,
                c.line,
                c.off,
                format!(
                    "WAIT on `{}` is guarded by `if` with no enclosing re-check loop \
                     (IF-based WAIT, §5.3)",
                    normalize_arg(&f.clean.text[c.args_start..c.args_end])
                ),
            );
        }
    }
}

/// §5.3: a NOTIFY/BROADCAST whose receiver the analyzer cannot trace to
/// a live `MonitorGuard` binding in the same activation: either a
/// drive-by `ctx.enter(&m).notify(&cv)` temporary (the wakeup divorced
/// from the critical section that changed the predicate) or a receiver
/// of unknown provenance. Guard-typed `fn` parameters count as held.
fn naked_notify(f: &FileScan, findings: &mut Vec<Finding>) {
    for c in f
        .scan
        .calls
        .iter()
        .filter(|c| (c.callee == "notify" || c.callee == "broadcast") && !c.is_def)
    {
        let Some(recv) = &c.receiver else { continue };
        if recv.contains("enter(") {
            push(
                findings,
                f,
                Lint::NakedNotify,
                c.line,
                c.off,
                format!(
                    "NOTIFY through a transient `{recv}` guard: the wakeup is outside the \
                     critical section that established its predicate (naked NOTIFY, §5.3)"
                ),
            );
            continue;
        }
        // Delegation that passes the guard along (`self.ctx.notify(self,
        // cv)` in the guard's own impl) keeps the wakeup tied to the
        // critical section: the guard is right there in the argument list.
        let args = split_args(&f.clean.text[c.args_start..c.args_end]);
        if args.iter().any(|a| {
            let n = normalize_arg(a);
            n == "self" || f.scan.guards_at(c.off).iter().any(|g| g.var == n)
        }) {
            continue;
        }
        let base = recv
            .split(['.', ':'])
            .next()
            .unwrap_or(recv)
            .trim()
            .to_string();
        let guard_bound = f.scan.guards_at(c.off).iter().any(|g| g.var == base);
        let guard_param = guard_typed_param(f, c, &base);
        if !guard_bound && !guard_param {
            push(
                findings,
                f,
                Lint::NakedNotify,
                c.line,
                c.off,
                format!(
                    "NOTIFY via `{recv}`, which is not a MonitorGuard bound in this scope \
                     (naked NOTIFY, §5.3)"
                ),
            );
        }
    }
}

/// True when `base` is a parameter of the enclosing `fn` whose written
/// type mentions a guard (e.g. `g: &mut MonitorGuard<'_, T>`).
fn guard_typed_param(f: &FileScan, c: &Call, base: &str) -> bool {
    let Some(body) = f.scan.body_of(c.off) else {
        return false;
    };
    let block = &f.scan.blocks[body];
    let Some(sig_start) = block.sig else {
        return false;
    };
    let sig = &f.clean.text[sig_start..block.start];
    let Some(open) = sig.find('(') else {
        return false;
    };
    let Some(close) = sig.rfind(')') else {
        return false;
    };
    split_args(&sig[open + 1..close]).iter().any(|p| {
        let mut parts = p.splitn(2, ':');
        let name = parts.next().unwrap_or("").trim().trim_start_matches("mut ");
        let ty = parts.next().unwrap_or("");
        name == base && ty.contains("Guard")
    })
}

/// Fallible, joinable fork calls for the §5.4 discard lint. Detached
/// variants record intent explicitly; `fork_root` cannot fail (it is
/// the simulation bootstrap); `fork_retry` is the recovery wrapper.
const DISCARDABLE_FORKS: &[&str] = &["fork", "fork_prio", "fork_with"];

/// §5.4: `let _ = …fork(…)` — both the `Result` (did the fork even
/// happen?) and the `JoinHandle` are dropped on the floor, so fork
/// failure is indistinguishable from success.
fn fork_result_discarded(f: &FileScan, findings: &mut Vec<Finding>) {
    for l in &f.scan.lets {
        if l.pat != "_" {
            continue;
        }
        // Only the *first* call in the RHS is what `_` discards; forks
        // nested in a closure argument (e.g. inside a `fork_root` body)
        // have their own bindings and are judged at their own `let`s.
        let Some(call) = f
            .scan
            .calls
            .iter()
            .filter(|c| !c.is_def && c.off >= l.rhs.0 && c.off < l.rhs.1)
            .min_by_key(|c| c.off)
        else {
            continue;
        };
        if !DISCARDABLE_FORKS.contains(&call.callee.as_str()) {
            continue;
        }
        // `let _ = ctx.fork(…).unwrap();` handles the Result — the §5.4
        // mistake is only when nothing inspects it.
        if f.clean.text[call.args_end + 1..l.rhs.1]
            .chars()
            .any(|ch| !ch.is_whitespace())
        {
            continue;
        }
        push(
            findings,
            f,
            Lint::ForkResultDiscarded,
            l.line,
            l.off,
            format!(
                "result of `{}` discarded: a failed FORK (ForkError) goes unnoticed and the \
                 thread is never joined, retried, or detached (§5.4)",
                call.callee
            ),
        );
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// Per-file clone/move aliases: `let cv2 = cv.clone();` (and the tuple
/// form `let (m2, cv2) = (m.clone(), cv.clone());`) map the new name to
/// its root, so notifying a clone counts as notifying the original —
/// and, since the map is name-based, entering a *monitor* clone counts
/// as entering the original (an unaliased lock-order audit would see
/// `m` and `m2` as distinct and miss the AB-BA).
pub(crate) fn alias_map(clean: &CleanSource, scan: &Scan) -> BTreeMap<String, String> {
    let mut aliases = BTreeMap::new();
    for l in &scan.lets {
        let pat = l.pat.trim();
        let rhs = clean.text[l.rhs.0..l.rhs.1].trim();
        let tuple = |s: &str| {
            s.strip_prefix('(')
                .and_then(|s| s.strip_suffix(')'))
                .map(split_args)
        };
        let pairs: Vec<(String, String)> = match (tuple(pat), tuple(rhs)) {
            (Some(ps), Some(rs)) if ps.len() == rs.len() => ps.into_iter().zip(rs).collect(),
            (Some(_), _) | (_, Some(_)) => continue,
            _ => vec![(pat.to_string(), rhs.to_string())],
        };
        for (p, r) in pairs {
            let p = p.trim().trim_start_matches("mut ").trim();
            let base = normalize_arg(r.trim());
            if is_ident(p) && is_ident(&base) && base != p {
                aliases.insert(p.to_string(), base);
            }
        }
    }
    // Resolve chains (cv3 -> cv2 -> cv), bounded against odd inputs.
    let keys: Vec<String> = aliases.keys().cloned().collect();
    for k in keys {
        let mut root = aliases[&k].clone();
        for _ in 0..8 {
            match aliases.get(&root) {
                Some(next) if *next != k => root = next.clone(),
                _ => break,
            }
        }
        aliases.insert(k, root);
    }
    aliases
}

/// Resolves a CV or monitor name through a file's alias map.
pub(crate) fn resolve<'a>(name: &'a str, aliases: &'a BTreeMap<String, String>) -> &'a str {
    aliases.get(name).map(String::as_str).unwrap_or(name)
}

/// The monitors held at byte offset `off` of `f`, clone aliases
/// resolved: what the lock-order edges, the local locksets and the
/// call-site locksets all mean by "held here".
pub(crate) fn held_at(f: &FileScan, off: usize) -> Vec<String> {
    f.scan
        .guards_at(off)
        .iter()
        .filter(|g| !g.monitor.is_empty())
        .map(|g| resolve(&g.monitor, &f.aliases).to_string())
        .collect()
}

/// The monitor an `enter` call `c` names (its first argument that is not
/// the context), clone aliases resolved; `None` when there is none.
pub(crate) fn entered_monitor(f: &FileScan, c: &Call) -> Option<String> {
    let args = split_args(&f.clean.text[c.args_start..c.args_end]);
    let m = args.iter().find(|a| normalize_arg(a) != "ctx")?;
    let m = resolve(&normalize_arg(m), &f.aliases).to_string();
    (!m.is_empty()).then_some(m)
}

/// CV names (last path segment of the notify argument, clone aliases
/// resolved) that some code path notifies or broadcasts, across the
/// whole workspace.
fn notified_cv_names(files: &[FileScan]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for f in files {
        for c in f
            .scan
            .calls
            .iter()
            .filter(|c| (c.callee == "notify" || c.callee == "broadcast") && !c.is_def)
        {
            let args = split_args(&f.clean.text[c.args_start..c.args_end]);
            if let Some(cv) = args.first() {
                let name = last_segment(cv);
                names.insert(resolve(&name, &f.aliases).to_string());
                names.insert(name);
            }
        }
    }
    names
}

/// §5.3: a WAIT on a CV that (a) was created *in this file* with a
/// timeout and (b) is never notified anywhere in the workspace — the
/// system's only forward progress on that CV is its timeout. This is
/// the end state of "adding timeouts to compensate for missing
/// NOTIFYs": it apparently works, but slowly.
fn timeout_no_notify(f: &FileScan, notified: &BTreeSet<String>, findings: &mut Vec<Finding>) {
    // CVs created in this file with Some(timeout), by binding/field name.
    let mut timeout_cvs: BTreeMap<String, usize> = BTreeMap::new();
    for c in f
        .scan
        .calls
        .iter()
        .filter(|c| (c.callee == "new_condition" || c.callee == "condition") && !c.is_def)
    {
        let args = split_args(&f.clean.text[c.args_start..c.args_end]);
        let Some(last) = args.last() else { continue };
        if !last.trim_start().starts_with("Some") {
            continue;
        }
        if let Some(name) = cv_binding_name(f, c) {
            timeout_cvs.entry(name).or_insert(c.line);
        }
    }
    if timeout_cvs.is_empty() {
        return;
    }
    for c in f
        .scan
        .calls
        .iter()
        .filter(|c| c.callee == "wait" && !c.is_def)
    {
        let args = split_args(&f.clean.text[c.args_start..c.args_end]);
        let Some(cv) = args.first() else { continue };
        let name = resolve(&last_segment(cv), &f.aliases).to_string();
        if timeout_cvs.contains_key(&name) && !notified.contains(&name) {
            push(
                findings,
                f,
                Lint::TimeoutNoNotify,
                c.line,
                c.off,
                format!(
                    "WAIT on `{name}`, a CV created with a timeout but never notified on any \
                     path in the workspace: progress is timeout-driven (§5.3)"
                ),
            );
        }
    }
}

/// The name a condition-variable (or monitor) creation is bound to:
/// `let cv = …` or a struct-literal field `nonempty: ctx.new_condition(…)`.
pub(crate) fn cv_binding_name(f: &FileScan, c: &Call) -> Option<String> {
    // A `let` whose RHS contains this call.
    if let Some(l) = f
        .scan
        .lets
        .iter()
        .find(|l| c.off >= l.rhs.0 && c.off < l.rhs.1)
    {
        let var = l.pat.trim_start_matches("mut ").trim();
        if var.chars().all(|ch| ch.is_alphanumeric() || ch == '_') && var != "_" {
            return Some(var.to_string());
        }
    }
    // A struct-literal field: `name: <receiver>.new_condition(…)`.
    let recv_len = c.receiver.as_deref().map(|r| r.len() + 1).unwrap_or(0);
    let before = f.clean.text[..c.off.saturating_sub(recv_len)].trim_end();
    let before = before.strip_suffix(':')?;
    let name: String = before
        .chars()
        .rev()
        .take_while(|ch| ch.is_alphanumeric() || *ch == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    (!name.is_empty()).then_some(name)
}

/// One acquired-before edge in a file's static lock-order graph.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// Monitor held (normalized argument of the outer `enter`).
    pub from: String,
    /// Monitor acquired while holding `from`.
    pub to: String,
    /// 1-based line of the inner acquisition.
    pub line: usize,
    /// Byte offset of the inner acquisition (for fork attribution).
    pub off: usize,
}

/// Collects nested-acquisition edges for one file, with clone aliases
/// resolved on both ends (`let m2 = m.clone();` is the *same* monitor).
/// Nesting never crosses `fn`/closure boundaries: a
/// fork-to-avoid-deadlock closure acquires in a *new* thread, which is
/// exactly the paper's §4.4 escape and must not count as nested.
pub fn lock_edges(f: &FileScan) -> Vec<LockEdge> {
    let mut edges = Vec::new();
    for c in f
        .scan
        .calls
        .iter()
        .filter(|c| c.callee == "enter" && !c.is_def)
    {
        let Some(inner) = entered_monitor(f, c) else {
            continue;
        };
        // A self-edge (re-entering the held monitor) is immediate
        // self-deadlock; the cycle pass reports it as a 1-cycle.
        for from in held_at(f, c.off) {
            edges.push(LockEdge {
                from,
                to: inner.clone(),
                line: c.line,
                off: c.off,
            });
        }
    }
    edges.sort();
    edges.dedup();
    edges
}

/// An acquired-before edge, as [`elementary_cycles`] walks it.
pub(crate) trait OrderEdge {
    /// `(held, acquired)`.
    fn ends(&self) -> (&str, &str);
}

impl OrderEdge for LockEdge {
    fn ends(&self) -> (&str, &str) {
        (&self.from, &self.to)
    }
}

/// The elementary cycles of an acquired-before graph that `keep`
/// accepts, in discovery order, each with its node names rotated to
/// start at the smallest and reported once (parallel edges that make
/// the same node cycle count once). A DFS from each node in name order
/// walks only to nodes above its start, so a cycle is found from its
/// smallest node; paths stop growing at `max_path` edges.
pub(crate) fn elementary_cycles<'e, E: OrderEdge>(
    edges: &'e [E],
    max_path: usize,
    mut keep: impl FnMut(&[&'e E]) -> bool,
) -> Vec<(Vec<String>, Vec<&'e E>)> {
    let mut adj: BTreeMap<&str, Vec<&E>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.ends().0).or_default().push(e);
    }
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut cycles = Vec::new();
    for &start in adj.keys() {
        let mut stack: Vec<(&str, Vec<&E>)> = vec![(start, Vec::new())];
        while let Some((node, path)) = stack.pop() {
            for &e in adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]) {
                let to = e.ends().1;
                if to == start {
                    let mut cycle = path.clone();
                    cycle.push(e);
                    if !keep(&cycle) {
                        continue;
                    }
                    let mut names: Vec<String> =
                        cycle.iter().map(|e| e.ends().0.to_string()).collect();
                    let min = names.iter().min().unwrap().clone();
                    while names[0] != min {
                        names.rotate_left(1);
                    }
                    if seen.insert(names.clone()) {
                        cycles.push((names, cycle));
                    }
                } else if path.len() < max_path
                    && !path.iter().any(|p| p.ends().1 == to)
                    && to > start
                {
                    let mut p = path.clone();
                    p.push(e);
                    stack.push((to, p));
                }
            }
        }
    }
    cycles
}

/// §2.6: cycle detection over the per-file lock-order graph. Node
/// identity is the normalized monitor expression within one file —
/// lock-order conventions in this workspace are per-module, and
/// per-file scoping keeps textual name collisions across unrelated
/// files from manufacturing false cycles.
fn lock_order_cycles(f: &FileScan, findings: &mut Vec<Finding>) {
    let edges = lock_edges(f);
    for (names, cycle_edges) in elementary_cycles(&edges, 8, |_| true) {
        let allowed = cycle_edges
            .iter()
            .all(|e| f.clean.is_allowed(Lint::LockOrderCycle.name(), e.line));
        let anchor = cycle_edges.iter().map(|e| e.line).min().unwrap();
        findings.push(Finding {
            lint: Lint::LockOrderCycle,
            krate: f.krate.clone(),
            file: f.path.clone(),
            line: anchor,
            message: format!(
                "monitor acquisition order has a cycle: {} -> {} (ABBA deadlock \
                 precondition, §2.6; edges at lines {})",
                names.join(" -> "),
                names[0],
                cycle_edges
                    .iter()
                    .map(|e| e.line.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            allowed,
            monitors: names,
            // Attribute the cycle to the forked thread whose body holds
            // the anchor acquisition, when there is one — the dynamic
            // confirm join matches it against stranded-party names.
            thread: cycle_edges
                .iter()
                .find_map(|e| enclosing_fork_name(f, e.off)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_str;

    fn findings_for(src: &str) -> Vec<Finding> {
        run_all(&[analyze_str("test", "test.rs", src)])
    }

    fn lints_of(fs: &[Finding]) -> Vec<Lint> {
        fs.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn if_wait_without_loop_fires() {
        let fs = findings_for(
            "fn f(g: &mut MonitorGuard<u32>, cv: &Condition) {\n\
             if !g.with(|q| q.ready) {\n    let _ = g.wait(cv);\n}\n}",
        );
        assert_eq!(lints_of(&fs), vec![Lint::WaitNotInLoop]);
        assert!(!fs[0].allowed);
    }

    #[test]
    fn wait_in_loop_is_clean() {
        let fs = findings_for(
            "fn f(g: &mut MonitorGuard<u32>, cv: &Condition) {\n\
             loop { if g.with(|q| q.ready) { return; } g.wait(cv); } }",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn wait_in_if_inside_loop_is_clean() {
        let fs = findings_for(
            "fn f(g: &mut MonitorGuard<u32>, cv: &Condition) {\n\
             while go() { if quiet() { g.wait(cv); } } }",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn allow_annotation_marks_finding() {
        let fs = findings_for(
            "fn f(g: &mut MonitorGuard<u32>, cv: &Condition) {\n\
             if !g.with(|q| q.ready) {\n\
             // threadlint: allow(wait-not-in-loop)\n    let _ = g.wait(cv);\n}\n}",
        );
        assert_eq!(fs.len(), 1);
        assert!(fs[0].allowed);
    }

    #[test]
    fn drive_by_enter_notify_is_naked() {
        let fs = findings_for(
            "fn f(ctx: &ThreadCtx, m: &Monitor<u32>, cv: &Condition) {\n\
             ctx.enter(m).notify(cv);\n}",
        );
        assert_eq!(lints_of(&fs), vec![Lint::NakedNotify]);
    }

    #[test]
    fn guarded_notify_is_clean() {
        let fs = findings_for(
            "fn f(ctx: &ThreadCtx, m: &Monitor<u32>, cv: &Condition) {\n\
             let mut g = ctx.enter(m);\ng.with_mut(|v| *v += 1);\ng.notify(cv);\n}",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn guard_param_notify_is_clean() {
        let fs = findings_for(
            "fn poke(g: &mut MonitorGuard<'_, u32>, cv: &Condition) { g.notify(cv); }",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn notify_after_drop_is_naked() {
        let fs = findings_for(
            "fn f(ctx: &ThreadCtx, m: &Monitor<u32>, cv: &Condition) {\n\
             let g = ctx.enter(m);\ndrop(g);\ng.notify(cv);\n}",
        );
        assert_eq!(lints_of(&fs), vec![Lint::NakedNotify]);
    }

    #[test]
    fn discarded_fork_fires_but_detached_and_root_do_not() {
        let fs = findings_for(
            "fn f(ctx: &ThreadCtx, sim: &mut Sim) {\n\
             let _ = ctx.fork_prio(n, p, body);\n\
             let _ = ctx.fork_detached(n, body);\n\
             let _ = sim.fork_root(n, p, body);\n}",
        );
        assert_eq!(lints_of(&fs), vec![Lint::ForkResultDiscarded]);
        assert_eq!(fs[0].line, 2);
    }

    #[test]
    fn bound_fork_handle_is_clean() {
        let fs = findings_for(
            "fn f(ctx: &ThreadCtx) { let h = ctx.fork(n, body).unwrap(); ctx.join(h).unwrap(); }",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn timeout_cv_without_notify_fires() {
        let fs = findings_for(
            "fn f(ctx: &ThreadCtx, m: &Monitor<bool>) {\n\
             let tick = ctx.new_condition(m, nm, Some(millis(50)));\n\
             let mut g = ctx.enter(m);\n\
             loop { g.wait(&tick); }\n}",
        );
        assert_eq!(lints_of(&fs), vec![Lint::TimeoutNoNotify]);
    }

    #[test]
    fn timeout_cv_with_a_notify_somewhere_is_clean() {
        let producer = analyze_str(
            "test",
            "producer.rs",
            "fn put(g: &mut MonitorGuard<'_, u32>, tick: &Condition) { g.notify(tick); }",
        );
        let consumer = analyze_str(
            "test",
            "consumer.rs",
            "fn f(ctx: &ThreadCtx, m: &Monitor<bool>) {\n\
             let tick = ctx.new_condition(m, nm, Some(millis(50)));\n\
             let mut g = ctx.enter(m);\n\
             loop { g.wait(&tick); }\n}",
        );
        let fs = run_all(&[producer, consumer]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn abba_cycle_detected_and_consistent_order_clean() {
        let fs = findings_for(
            "fn ab(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let ga = ctx.enter(a);\nlet gb = ctx.enter(b);\n}\n\
             fn ba(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let gb = ctx.enter(b);\nlet ga = ctx.enter(a);\n}",
        );
        assert_eq!(lints_of(&fs), vec![Lint::LockOrderCycle]);
        let clean = findings_for(
            "fn ab(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let ga = ctx.enter(a);\nlet gb = ctx.enter(b);\n}\n\
             fn ab2(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let ga = ctx.enter(a);\nlet gb = ctx.enter(b);\n}",
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn self_reentry_is_a_cycle() {
        let fs = findings_for(
            "fn f(ctx: &ThreadCtx, m: &Monitor<u32>) {\n\
             let g = ctx.enter(m);\nlet g2 = ctx.enter(m);\n}",
        );
        assert_eq!(lints_of(&fs), vec![Lint::LockOrderCycle]);
    }

    #[test]
    fn forked_closure_acquisition_is_not_nested() {
        let fs = findings_for(
            "fn ab(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let ga = ctx.enter(a);\n\
             fork_to_avoid_deadlock(ctx, nm, move |ctx| { let gb = ctx.enter(b); }).unwrap();\n}\n\
             fn ba(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let gb = ctx.enter(b);\nlet ga = ctx.enter(a);\n}",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn wait_in_raw_string_or_comment_is_not_a_finding() {
        // Lexer regression: primitive names inside raw strings and
        // nested block comments must be invisible to every lint.
        let fs = findings_for(
            "fn f() {\n\
             let doc = r#\"if empty { g.wait(cv); }\"#;\n\
             /* dead /* g.wait(cv); */ ctx.enter(m); */\n\
             let delim = '\\'';\n}",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }
}
