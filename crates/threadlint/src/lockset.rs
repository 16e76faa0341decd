//! Interprocedural lockset analysis: a context-insensitive fixpoint
//! that propagates held-monitor sets through the call graph.
//!
//! The paper's worst mistakes are lock-discipline violations *across*
//! call chains: §4.4's fork-to-avoid-deadlock exists precisely because
//! a callee re-acquiring its caller's monitor deadlocks, §5.3's "WAIT
//! releases only the innermost monitor" bites when the outer monitor
//! was entered three frames up, and §6.1's lock-holder stalls are
//! usually a helper function blocking while a caller holds the lock.
//! The per-file lints cannot see any of this; this module can.
//!
//! Three summaries are computed over [`crate::callgraph::CallGraph`]:
//!
//! * **entry locksets** — for each `fn`, the union over all call sites
//!   of the monitors the caller holds at that site (forward-renamed
//!   through argument→parameter positions), iterated to fixpoint;
//! * **transitive acquisitions** — for each `fn`, every monitor it or
//!   any callee may enter (parameter names renamed back to the
//!   caller's arguments), with a witness call path;
//! * **transitive lock-order edges** — `held → acquired` pairs
//!   composed through calls, feeding a global cycle search.
//!
//! Three lints come out: `lock-order-cycle-transitive` (a cycle with
//! at least one edge crossing a call — purely local cycles stay the
//! per-file lint's territory), `wait-with-outer-monitor` (a `wait`
//! reachable with ≥ 2 monitors in the lockset), and
//! `blocking-call-in-monitor` (fork/join/sleep/long-work reached while
//! holding a monitor). Closures are the §4.4 new-thread escape: they
//! inherit **no** lockset from their lexical creator (and so suppress
//! exactly the idiom the paper recommends), but their own acquisitions
//! and outgoing calls are analyzed.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{self, CallGraph, Edge};
use crate::lints::{
    elementary_cycles, enclosing_fork_name, entered_monitor, held_at, Finding, OrderEdge,
};
use crate::scan::{last_segment, split_args};
use crate::{FileScan, Lint};

/// Callees that block or stall the calling thread: `join` (unbounded)
/// and the sleeps — the §6.1 lock-holder-stall sources. Two deliberate
/// absences: fork, because forking while holding a monitor is the
/// §4.4 *remedy* idiom and fork returns immediately; and `work`,
/// because bounded CPU work inside a critical section is what critical
/// sections are for (§3 pricing, not a §6.1 pathology).
pub(crate) fn is_blocking(callee: &str) -> bool {
    matches!(callee, "join" | "sleep" | "sleep_precise")
}

/// One step of a witness call path: a call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteRef {
    /// Workspace-relative file of the call site.
    pub file: String,
    /// 1-based line of the call site.
    pub line: usize,
    /// The callee name at that site.
    pub callee: String,
}

impl SiteRef {
    fn of(files: &[FileScan], e: &Edge, g: &CallGraph) -> SiteRef {
        SiteRef {
            file: files[e.file].path.clone(),
            line: e.line,
            callee: g.nodes[e.callee].label(),
        }
    }

    fn render(path: &[SiteRef]) -> String {
        path.iter()
            .map(|s| format!("{}:{} calls {}", s.file, s.line, s.callee))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// One transitively reachable acquisition, with its witness.
#[derive(Clone, Debug)]
struct Acq {
    /// Call path from the summarized fn to the acquiring fn.
    via: Vec<SiteRef>,
    /// File index of the actual `enter`.
    enter_file: usize,
    /// 1-based line of the actual `enter`.
    enter_line: usize,
}

/// Per-node local facts, in source order.
#[derive(Default)]
struct Locals {
    /// `enter` sites: (monitor, line, monitors held just before).
    enters: Vec<(String, usize, Vec<String>)>,
    /// `wait` sites: (cv name, line, offset, monitors held locally).
    waits: Vec<(String, usize, usize, Vec<String>)>,
    /// Blocking call sites: (callee, line, offset, monitors held).
    blocking: Vec<(String, usize, usize, Vec<String>)>,
}

/// The computed interprocedural state, exposed for tests and tooling.
pub struct Lockset {
    /// Per-node inherited locksets (caller-held monitors, renamed into
    /// the callee's namespace).
    pub entry: Vec<BTreeSet<String>>,
    /// Witness call chain for each inherited monitor.
    pub entry_via: Vec<BTreeMap<String, Vec<SiteRef>>>,
}

/// Forward argument→parameter renaming at a call edge: the monitor the
/// caller calls `m` is the callee's `x` when `&m` is passed in `x`'s
/// position.
fn map_forward(held: &str, e: &Edge, g: &CallGraph) -> String {
    let params = g.nodes[e.callee].params();
    let skip = usize::from(params.first().map(String::as_str) == Some("self"));
    if let Some(k) = e.args.iter().position(|a| a == held) {
        if let Some(p) = params.get(k + skip) {
            if is_plain_ident(p) {
                return p.clone();
            }
        }
    }
    held.to_string()
}

/// Backward parameter→argument renaming: a monitor the callee knows as
/// its parameter `x` is, at this call site, whatever was passed there.
fn map_back(monitor: &str, e: &Edge, g: &CallGraph) -> String {
    let params = g.nodes[e.callee].params();
    let skip = usize::from(params.first().map(String::as_str) == Some("self"));
    if let Some(k) = params.iter().skip(skip).position(|p| p == monitor) {
        if let Some(a) = e.args.get(k) {
            if !a.is_empty() {
                return a.clone();
            }
        }
    }
    monitor.to_string()
}

fn is_plain_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// Computes per-node local facts: enters, waits, and blocking calls
/// with the locally held (alias-resolved) monitor sets.
fn locals(files: &[FileScan], g: &CallGraph) -> Vec<Locals> {
    let mut out: Vec<Locals> = (0..g.nodes.len()).map(|_| Locals::default()).collect();
    for (ni, n) in g.nodes.iter().enumerate() {
        let f = &files[n.file];
        for c in &f.scan.calls {
            if c.is_def || f.scan.body_of(c.off) != Some(n.block) {
                continue;
            }
            let held = held_at(f, c.off);
            match c.callee.as_str() {
                "enter" => {
                    if let Some(m) = entered_monitor(f, c) {
                        out[ni].enters.push((m, c.line, held));
                    }
                }
                "wait" => {
                    let args = split_args(&f.clean.text[c.args_start..c.args_end]);
                    let cv = args.first().map(|a| last_segment(a)).unwrap_or_default();
                    out[ni].waits.push((cv, c.line, c.off, held));
                }
                callee if is_blocking(callee) => {
                    out[ni]
                        .blocking
                        .push((callee.to_string(), c.line, c.off, held));
                }
                _ => {}
            }
        }
    }
    out
}

/// Runs the entry-lockset fixpoint.
pub fn compute(files: &[FileScan], g: &CallGraph) -> Lockset {
    let mut entry: Vec<BTreeSet<String>> = vec![BTreeSet::new(); g.nodes.len()];
    let mut entry_via: Vec<BTreeMap<String, Vec<SiteRef>>> = vec![BTreeMap::new(); g.nodes.len()];
    loop {
        let mut changed = false;
        for e in &g.edges {
            let site = SiteRef::of(files, e, g);
            let mut incoming: Vec<(String, Vec<SiteRef>)> = Vec::new();
            for h in entry[e.caller].clone() {
                let mut chain = entry_via[e.caller].get(&h).cloned().unwrap_or_default();
                if chain.len() >= 6 {
                    continue;
                }
                chain.push(site.clone());
                incoming.push((map_forward(&h, e, g), chain));
            }
            for h in held_at(&files[e.file], e.off) {
                incoming.push((map_forward(&h, e, g), vec![site.clone()]));
            }
            for (m, chain) in incoming {
                if entry[e.callee].insert(m.clone()) {
                    entry_via[e.callee].insert(m, chain);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Lockset { entry, entry_via }
}

/// Runs the transitive-acquisition fixpoint: per node, every monitor it
/// or a callee may enter, keyed by the caller-namespace name.
fn acquisitions(files: &[FileScan], g: &CallGraph, loc: &[Locals]) -> Vec<BTreeMap<String, Acq>> {
    let mut acq: Vec<BTreeMap<String, Acq>> = (0..g.nodes.len())
        .map(|ni| {
            loc[ni]
                .enters
                .iter()
                .map(|(m, line, _)| {
                    (
                        m.clone(),
                        Acq {
                            via: Vec::new(),
                            enter_file: g.nodes[ni].file,
                            enter_line: *line,
                        },
                    )
                })
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for e in &g.edges {
            let callee_acq: Vec<(String, Acq)> = acq[e.callee]
                .iter()
                .map(|(m, a)| (m.clone(), a.clone()))
                .collect();
            for (m, a) in callee_acq {
                if a.via.len() >= 5 {
                    continue;
                }
                let name = map_back(&m, e, g);
                if acq[e.caller].contains_key(&name) {
                    continue;
                }
                let mut via = vec![SiteRef::of(files, e, g)];
                via.extend(a.via.clone());
                acq[e.caller].insert(
                    name,
                    Acq {
                        via,
                        enter_file: a.enter_file,
                        enter_line: a.enter_line,
                    },
                );
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    acq
}

/// One composed acquisition-order edge.
struct TransEdge {
    from: String,
    to: String,
    via: Vec<SiteRef>,
    enter_file: usize,
    enter_line: usize,
}

impl TransEdge {
    fn crosses_call(&self) -> bool {
        !self.via.is_empty()
    }
}

impl OrderEdge for TransEdge {
    fn ends(&self) -> (&str, &str) {
        (&self.from, &self.to)
    }
}

/// Composes held→acquired edges: locally nested enters plus, at every
/// call made while holding, everything the callee transitively enters.
fn trans_edges(
    files: &[FileScan],
    g: &CallGraph,
    loc: &[Locals],
    acq: &[BTreeMap<String, Acq>],
) -> Vec<TransEdge> {
    let mut edges: Vec<TransEdge> = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for (ni, n) in g.nodes.iter().enumerate() {
        for (m, line, held) in &loc[ni].enters {
            for h in held {
                if seen.insert((h.clone(), m.clone())) {
                    edges.push(TransEdge {
                        from: h.clone(),
                        to: m.clone(),
                        via: Vec::new(),
                        enter_file: n.file,
                        enter_line: *line,
                    });
                }
            }
        }
    }
    for e in &g.edges {
        let held = held_at(&files[e.file], e.off);
        if held.is_empty() {
            continue;
        }
        for (m, a) in &acq[e.callee] {
            let to = map_back(m, e, g);
            let mut via = vec![SiteRef::of(files, e, g)];
            via.extend(a.via.clone());
            // Self-edges included: a callee re-entering the caller's
            // held monitor is the §4.4 self-deadlock, a 1-cycle.
            for h in &held {
                if !seen.insert((h.clone(), to.clone())) {
                    continue;
                }
                edges.push(TransEdge {
                    from: h.clone(),
                    to: to.clone(),
                    via: via.clone(),
                    enter_file: a.enter_file,
                    enter_line: a.enter_line,
                });
            }
        }
    }
    edges
}

/// Runs the three interprocedural lints, appending findings.
pub fn run(files: &[FileScan], findings: &mut Vec<Finding>) {
    let g = callgraph::build(files);
    let loc = locals(files, &g);
    let ls = compute(files, &g);
    let acq = acquisitions(files, &g, &loc);

    cycles(files, &g, &loc, &acq, findings);

    for (ni, n) in g.nodes.iter().enumerate() {
        let f = &files[n.file];
        let inherited = &ls.entry[ni];
        for (cv, line, off, held) in &loc[ni].waits {
            let mut total: BTreeSet<String> = held.iter().cloned().collect();
            total.extend(inherited.iter().cloned());
            if total.len() < 2 {
                continue;
            }
            let monitors: Vec<String> = total.into_iter().collect();
            findings.push(Finding {
                lint: Lint::WaitWithOuterMonitor,
                krate: f.krate.clone(),
                file: f.path.clone(),
                line: *line,
                message: format!(
                    "WAIT on `{cv}` reachable with {} monitors held ({}): WAIT releases only \
                     the innermost, so the outer monitors stay locked across the sleep (§5.3){}",
                    monitors.len(),
                    monitors.join(", "),
                    inherited_note(inherited, held, &ls.entry_via[ni]),
                ),
                allowed: f.clean.is_allowed(Lint::WaitWithOuterMonitor.name(), *line),
                monitors,
                thread: enclosing_fork_name(f, *off),
            });
        }
        for (callee, line, off, held) in &loc[ni].blocking {
            let mut total: BTreeSet<String> = held.iter().cloned().collect();
            total.extend(inherited.iter().cloned());
            if total.is_empty() {
                continue;
            }
            let monitors: Vec<String> = total.into_iter().collect();
            findings.push(Finding {
                lint: Lint::BlockingCallInMonitor,
                krate: f.krate.clone(),
                file: f.path.clone(),
                line: *line,
                message: format!(
                    "blocking call `{callee}` reached while holding {}: a lock-holder stall \
                     starves every thread queued on the monitor (§6.1){}",
                    monitors.join(", "),
                    inherited_note(inherited, held, &ls.entry_via[ni]),
                ),
                allowed: f
                    .clean
                    .is_allowed(Lint::BlockingCallInMonitor.name(), *line),
                monitors,
                thread: enclosing_fork_name(f, *off),
            });
        }
    }
}

/// Renders the witness chains for monitors held only by inheritance.
fn inherited_note(
    inherited: &BTreeSet<String>,
    local: &[String],
    via: &BTreeMap<String, Vec<SiteRef>>,
) -> String {
    let mut notes: Vec<String> = Vec::new();
    for m in inherited {
        if local.contains(m) {
            continue;
        }
        if let Some(chain) = via.get(m) {
            if !chain.is_empty() {
                notes.push(format!("`{m}` held via {}", SiteRef::render(chain)));
            }
        }
    }
    if notes.is_empty() {
        String::new()
    } else {
        format!("; {}", notes.join("; "))
    }
}

/// Cycle search over the transitive edges; only cycles with at least
/// one call-crossing edge are reported (purely local cycles are the
/// per-file `lock-order-cycle` lint's job, with its per-file node
/// identity that textual name collisions cannot pollute).
fn cycles(
    files: &[FileScan],
    g: &CallGraph,
    loc: &[Locals],
    acq: &[BTreeMap<String, Acq>],
    findings: &mut Vec<Finding>,
) {
    let edges = trans_edges(files, g, loc, acq);
    for (names, cycle) in elementary_cycles(&edges, 6, |c| c.iter().any(|e| e.crosses_call())) {
        let allowed = cycle.iter().all(|e| {
            files[e.enter_file]
                .clean
                .is_allowed(Lint::LockOrderCycleTransitive.name(), e.enter_line)
        });
        let anchor = cycle
            .iter()
            .map(|e| {
                (
                    files[e.enter_file].path.as_str(),
                    e.enter_line,
                    e.enter_file,
                )
            })
            .min()
            .unwrap();
        let detail = cycle
            .iter()
            .map(|e| {
                let site = format!("{}:{}", files[e.enter_file].path, e.enter_line);
                if e.via.is_empty() {
                    format!("{} -> {} (enter at {site})", e.from, e.to)
                } else {
                    format!(
                        "{} -> {} via {} (enter at {site})",
                        e.from,
                        e.to,
                        SiteRef::render(&e.via)
                    )
                }
            })
            .collect::<Vec<_>>()
            .join("; ");
        findings.push(Finding {
            lint: Lint::LockOrderCycleTransitive,
            krate: files[anchor.2].krate.clone(),
            file: anchor.0.to_string(),
            line: anchor.1,
            message: format!(
                "monitor acquisition cycle across call chains: {} -> {} \
                 (ABBA deadlock threaded through helpers, §2.6/§4.4): {detail}",
                names.join(" -> "),
                names[0],
            ),
            allowed,
            monitors: names,
            thread: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_str;
    use crate::lints::run_all;

    fn findings_for(src: &str) -> Vec<Finding> {
        run_all(&[analyze_str("test", "test.rs", src)])
    }

    fn lints_of(fs: &[Finding]) -> Vec<Lint> {
        fs.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn transitive_abba_through_helpers_fires() {
        let fs = findings_for(
            "fn ab(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let ga = ctx.enter(a);\nhelp_b(ctx, b);\n}\n\
             fn help_b(ctx: &ThreadCtx, b: &Monitor<u32>) { let gb = ctx.enter(b); }\n\
             fn ba(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let gb = ctx.enter(b);\nhelp_a(ctx, a);\n}\n\
             fn help_a(ctx: &ThreadCtx, a: &Monitor<u32>) { let ga = ctx.enter(a); }",
        );
        assert!(
            lints_of(&fs).contains(&Lint::LockOrderCycleTransitive),
            "{fs:?}"
        );
        let f = fs
            .iter()
            .find(|f| f.lint == Lint::LockOrderCycleTransitive)
            .unwrap();
        assert!(f.message.contains("via"), "{}", f.message);
        assert_eq!(f.monitors, vec!["a".to_string(), "b".to_string()]);
        // No per-file cycle: neither fn nests both enters locally.
        assert!(!lints_of(&fs).contains(&Lint::LockOrderCycle), "{fs:?}");
    }

    #[test]
    fn param_renaming_links_caller_and_callee_names() {
        // Caller holds `a`, callee enters its param `x` = caller's `b`;
        // reverse order elsewhere. The cycle only exists if `x` maps
        // back to `b` at the call site.
        let fs = findings_for(
            "fn ab(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let ga = ctx.enter(a);\ngrab(ctx, b);\n}\n\
             fn grab(ctx: &ThreadCtx, x: &Monitor<u32>) { let gx = ctx.enter(x); }\n\
             fn ba(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let gb = ctx.enter(b);\ngrab(ctx, a);\n}",
        );
        assert!(
            lints_of(&fs).contains(&Lint::LockOrderCycleTransitive),
            "{fs:?}"
        );
    }

    #[test]
    fn fork_escape_closure_stays_silent() {
        // §4.4: the forked closure acquires on a new thread — no edge,
        // no cycle, nothing inherited.
        let fs = findings_for(
            "fn ab(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let ga = ctx.enter(a);\n\
             fork_to_avoid_deadlock(ctx, nm, move |ctx| { help_b(ctx, b); }).unwrap();\n}\n\
             fn help_b(ctx: &ThreadCtx, b: &Monitor<u32>) { let gb = ctx.enter(b); }\n\
             fn ba(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let gb = ctx.enter(b);\nhelp_a(ctx, a);\n}\n\
             fn help_a(ctx: &ThreadCtx, a: &Monitor<u32>) { let ga = ctx.enter(a); }",
        );
        assert!(
            !lints_of(&fs).contains(&Lint::LockOrderCycleTransitive),
            "{fs:?}"
        );
    }

    #[test]
    fn wait_with_outer_monitor_fires_through_a_call() {
        let fs = findings_for(
            "fn outer(ctx: &ThreadCtx, o: &Monitor<u32>, i: &Monitor<u32>, cv: &Condition) {\n\
             let go = ctx.enter(o);\ninner_wait(ctx, i, cv);\n}\n\
             fn inner_wait(ctx: &ThreadCtx, i: &Monitor<u32>, cv: &Condition) {\n\
             let mut gi = ctx.enter(i);\nloop { gi.wait(cv); }\n}",
        );
        let f = fs
            .iter()
            .find(|f| f.lint == Lint::WaitWithOuterMonitor)
            .expect("fires");
        assert!(f.message.contains("held via"), "{}", f.message);
        assert_eq!(f.monitors, vec!["i".to_string(), "o".to_string()]);
    }

    #[test]
    fn wait_under_single_monitor_is_clean() {
        let fs = findings_for(
            "fn one(ctx: &ThreadCtx, m: &Monitor<u32>, cv: &Condition) {\n\
             let mut g = ctx.enter(m);\nloop { g.wait(cv); }\n}",
        );
        assert!(
            !lints_of(&fs).contains(&Lint::WaitWithOuterMonitor),
            "{fs:?}"
        );
    }

    #[test]
    fn blocking_call_fires_locally_and_through_calls() {
        let fs = findings_for(
            "fn direct(ctx: &ThreadCtx, m: &Monitor<u32>) {\n\
             let g = ctx.enter(m);\nctx.sleep(millis(5));\n}\n\
             fn indirect(ctx: &ThreadCtx, m: &Monitor<u32>) {\n\
             let g = ctx.enter(m);\nslow(ctx);\n}\n\
             fn slow(ctx: &ThreadCtx) { ctx.sleep_precise(millis(20)); }",
        );
        let hits: Vec<&Finding> = fs
            .iter()
            .filter(|f| f.lint == Lint::BlockingCallInMonitor)
            .collect();
        assert_eq!(hits.len(), 2, "{fs:?}");
        assert!(hits.iter().any(|f| f.message.contains("`sleep`")));
        assert!(
            hits.iter()
                .any(|f| f.message.contains("`sleep_precise`") && f.message.contains("held via")),
            "{hits:?}"
        );
    }

    #[test]
    fn work_under_a_monitor_is_not_blocking() {
        // Bounded CPU work is what critical sections are for; only
        // sleeps and joins are §6.1 stalls.
        let fs = findings_for(
            "fn f(ctx: &ThreadCtx, m: &Monitor<u32>) {\n\
             let g = ctx.enter(m);\nctx.work(millis(3));\n}",
        );
        assert!(
            !lints_of(&fs).contains(&Lint::BlockingCallInMonitor),
            "{fs:?}"
        );
    }

    #[test]
    fn blocking_in_forked_closure_does_not_inherit_creator_lock() {
        let fs = findings_for(
            "fn f(ctx: &ThreadCtx, m: &Monitor<u32>) {\n\
             let g = ctx.enter(m);\n\
             fork_to_avoid_deadlock(ctx, nm, move |ctx| { ctx.sleep(millis(5)); }).unwrap();\n}",
        );
        // The fork call itself happens under the monitor (one finding);
        // the sleep inside the new thread's closure must not.
        let hits: Vec<&Finding> = fs
            .iter()
            .filter(|f| f.lint == Lint::BlockingCallInMonitor)
            .collect();
        assert!(
            !hits.iter().any(|f| f.message.contains("`sleep`")),
            "{hits:?}"
        );
    }

    #[test]
    fn monitor_clone_alias_unifies_transitive_nodes() {
        // `b2 = b.clone()` must not split monitor `b` into two nodes.
        let fs = findings_for(
            "fn ab(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let b2 = b.clone();\nlet ga = ctx.enter(a);\nlet gb = ctx.enter(&b2);\n}\n\
             fn ba(ctx: &ThreadCtx, a: &Monitor<u32>, b: &Monitor<u32>) {\n\
             let gb = ctx.enter(b);\nhelp_a(ctx, a);\n}\n\
             fn help_a(ctx: &ThreadCtx, a: &Monitor<u32>) { let ga = ctx.enter(a); }",
        );
        assert!(
            lints_of(&fs).contains(&Lint::LockOrderCycleTransitive),
            "{fs:?}"
        );
    }
}
