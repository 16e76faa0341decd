//! Wait-for graph extraction: who is blocked on whom, and for how long.
//!
//! The global deadlock detector in [`crate::Sim::run`] only fires when
//! *nothing* can ever run again — but the paper's failure stories (§2.6,
//! §5.2, §5.4) are mostly *partial* wedges: a handful of threads stuck
//! behind an unresponsive holder or an exhausted fork queue while the
//! rest of the system limps on. [`crate::Sim::wait_for_graph`] snapshots
//! the blocking relationships of a *live* simulation so a supervisor can
//! spot those wedges, extract cycles, and pick a recovery lever.

use crate::thread::{Priority, ThreadId};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// What a blocked thread is waiting on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockKind {
    /// Waiting to enter a monitor (edge to its current owner).
    Monitor,
    /// Stalled behind a preempted metalock holder (§6.2).
    Metalock,
    /// Waiting on a condition variable. Not a wedge by itself — a
    /// timeout or a future notify can still rescue the waiter — so
    /// [`WaitForGraph::wedged`] excludes it.
    Condition {
        /// True if the CV has a timeout that will eventually fire.
        has_timeout: bool,
    },
    /// Joining another thread (edge to the join target).
    Join,
    /// Blocked in FORK waiting for a thread slot (§5.4).
    Fork,
}

impl BlockKind {
    /// Short stable tag, used in failure signatures and rendering.
    pub fn tag(&self) -> &'static str {
        match self {
            BlockKind::Monitor => "monitor",
            BlockKind::Metalock => "metalock",
            BlockKind::Condition { .. } => "condition",
            BlockKind::Join => "join",
            BlockKind::Fork => "fork",
        }
    }
}

/// One blocked thread: a node of the wait-for graph, with its outgoing
/// edge (`blocked_on`) when the obstacle is another thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitingThread {
    /// The blocked thread.
    pub tid: ThreadId,
    /// Its name.
    pub name: String,
    /// Its priority.
    pub priority: Priority,
    /// What it is blocked in.
    pub kind: BlockKind,
    /// Name of the resource (monitor, CV, join target, or "fork slot").
    pub resource: String,
    /// The thread holding the resource, when one is known.
    pub blocked_on: Option<ThreadId>,
    /// When this thread entered its current blocking state.
    pub since: SimTime,
}

/// A live thread that could run but currently is not: preempted (in the
/// ready queue) or chaos-stalled. These are the candidate *holders* of a
/// priority inversion — a blocked high-priority thread whose obstacle
/// sits here at a strictly lower priority is inverted (§6.2).
#[derive(Clone, Debug)]
pub struct RunnableThread {
    /// The runnable-but-not-running thread.
    pub tid: ThreadId,
    /// Its name.
    pub name: String,
    /// Its priority.
    pub priority: Priority,
    /// True if chaos-stalled rather than merely preempted.
    pub stalled: bool,
}

/// One detected priority inversion (§6.2): a high-priority thread
/// blocked on a monitor or metalock whose current holder is runnable at
/// a strictly lower priority — the holder would finish and release if
/// only it were scheduled, but middle-priority work keeps it off the
/// CPU. The paper's remedies are metalock cycle donation and a
/// SystemDaemon-style priority boost; see
/// `resilience`'s supervisor for the recovery ladder that applies them.
#[derive(Clone, Debug)]
pub struct Inversion {
    /// The blocked high-priority thread.
    pub victim: ThreadId,
    /// The victim's name.
    pub victim_name: String,
    /// The victim's priority.
    pub victim_priority: Priority,
    /// What the victim is blocked in (Monitor or Metalock).
    pub kind: BlockKind,
    /// Name of the contested resource.
    pub resource: String,
    /// The lower-priority thread holding the resource.
    pub holder: ThreadId,
    /// The holder's name.
    pub holder_name: String,
    /// The holder's (lower) priority.
    pub holder_priority: Priority,
    /// True if the holder is chaos-stalled (rejuvenation is the fix)
    /// rather than preempted (donation or a boost is the fix).
    pub holder_stalled: bool,
}

/// A snapshot of every blocking relationship in a live simulation.
#[derive(Clone, Debug)]
pub struct WaitForGraph {
    /// Virtual time of the snapshot.
    pub now: SimTime,
    /// Every blocked thread (CV waiters included, for rendering).
    pub threads: Vec<WaitingThread>,
    /// Chaos-stalled threads: `(tid, name)`. Not blocked on anything,
    /// but often the *root* other threads are blocked behind.
    pub stalled: Vec<(ThreadId, String)>,
    /// Live threads that could run but are not running (preempted or
    /// chaos-stalled), with their priorities: the candidate holders for
    /// [`WaitForGraph::inversions`].
    pub runnable: Vec<RunnableThread>,
}

impl WaitForGraph {
    /// Threads that look genuinely stuck: blocked for at least
    /// `threshold`, excluding CV waits (a timeout or a future notify can
    /// rescue those; the GVX worlds even park by-design eternal waiters
    /// on timeout-less CVs).
    pub fn wedged(&self, threshold: SimDuration) -> Vec<&WaitingThread> {
        self.threads
            .iter()
            .filter(|w| !matches!(w.kind, BlockKind::Condition { .. }))
            .filter(|w| self.now.saturating_since(w.since) >= threshold)
            .collect()
    }

    /// Detects priority inversions (§6.2): threads blocked on a monitor
    /// or metalock for at least `threshold` whose holder is runnable —
    /// preempted or chaos-stalled — at a *strictly lower* priority. CV
    /// and join waits carry no holder semantics and are never reported.
    pub fn inversions(&self, threshold: SimDuration) -> Vec<Inversion> {
        let mut out = Vec::new();
        for w in &self.threads {
            if !matches!(w.kind, BlockKind::Monitor | BlockKind::Metalock) {
                continue;
            }
            if self.now.saturating_since(w.since) < threshold {
                continue;
            }
            let Some(holder) = w.blocked_on else { continue };
            let Some(r) = self.runnable.iter().find(|r| r.tid == holder) else {
                continue;
            };
            if r.priority >= w.priority {
                continue;
            }
            out.push(Inversion {
                victim: w.tid,
                victim_name: w.name.clone(),
                victim_priority: w.priority,
                kind: w.kind.clone(),
                resource: w.resource.clone(),
                holder,
                holder_name: r.name.clone(),
                holder_priority: r.priority,
                holder_stalled: r.stalled,
            });
        }
        out
    }

    /// Follows `tid`'s wait-for edges to the thread ultimately obstructing
    /// it: the first thread on the chain with no outgoing edge (a holder
    /// that is runnable, stalled, or blocked on a resource with no owner).
    /// Returns `None` if `tid` is not blocked, or the chain is a cycle
    /// with no root.
    pub fn root_of(&self, tid: ThreadId) -> Option<ThreadId> {
        let edges: BTreeMap<ThreadId, Option<ThreadId>> =
            self.threads.iter().map(|w| (w.tid, w.blocked_on)).collect();
        let mut cur = tid;
        let mut seen = vec![cur];
        loop {
            match edges.get(&cur) {
                // Not blocked at all: only a root if we moved to it.
                None => return (cur != tid).then_some(cur),
                // Blocked, but on a resource with no owning thread.
                Some(None) => return Some(cur),
                Some(Some(next)) => {
                    if seen.contains(next) {
                        return None; // Cycle: no root to act on.
                    }
                    seen.push(*next);
                    cur = *next;
                }
            }
        }
    }

    /// Extracts every distinct wait-for cycle (each reported once, rotated
    /// to start at its smallest member). CV edges carry no `blocked_on`,
    /// so cycles here are true mutual-wait deadlocks: monitors, metalocks,
    /// and joins.
    pub fn cycles(&self) -> Vec<Vec<ThreadId>> {
        let edges: BTreeMap<ThreadId, Option<ThreadId>> =
            self.threads.iter().map(|w| (w.tid, w.blocked_on)).collect();
        let mut found: Vec<Vec<ThreadId>> = Vec::new();
        for &start in edges.keys() {
            let mut path = vec![start];
            let mut cur = start;
            while let Some(Some(next)) = edges.get(&cur) {
                if let Some(pos) = path.iter().position(|t| t == next) {
                    let mut cycle = path[pos..].to_vec();
                    // Canonical rotation: smallest tid first.
                    let min = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, t)| t.as_u32())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min);
                    if !found.contains(&cycle) {
                        found.push(cycle);
                    }
                    break;
                }
                path.push(*next);
                cur = *next;
            }
        }
        found
    }

    /// Human-readable rendering: one line per blocked thread, with wait
    /// age, plus any cycles and stalled roots.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "wait-for graph at t={}us:", self.now.as_micros());
        for w in &self.threads {
            let age = self.now.saturating_since(w.since);
            let on = match w.blocked_on {
                Some(t) => {
                    let name = self
                        .threads
                        .iter()
                        .find(|x| x.tid == t)
                        .map(|x| x.name.as_str())
                        .or_else(|| {
                            self.stalled
                                .iter()
                                .find(|(s, _)| *s == t)
                                .map(|(_, n)| n.as_str())
                        })
                        .unwrap_or("<running>");
                    format!(" <- held by {name} (t{})", t.as_u32())
                }
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  {} (t{} p{}) {} on {} for {}us{}",
                w.name,
                w.tid.as_u32(),
                w.priority.get(),
                w.kind.tag(),
                w.resource,
                age.as_micros(),
                on,
            );
        }
        for (tid, name) in &self.stalled {
            let _ = writeln!(out, "  {} (t{}) chaos-stalled", name, tid.as_u32());
        }
        for cycle in self.cycles() {
            let names: Vec<String> = cycle
                .iter()
                .map(|t| {
                    self.threads
                        .iter()
                        .find(|w| w.tid == *t)
                        .map(|w| format!("{} (t{})", w.name, t.as_u32()))
                        .unwrap_or_else(|| format!("t{}", t.as_u32()))
                })
                .collect();
            let _ = writeln!(out, "  CYCLE: {}", names.join(" -> "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waiting(tid: u32, name: &str, on: Option<u32>) -> WaitingThread {
        WaitingThread {
            tid: ThreadId::from_u32(tid),
            name: name.to_string(),
            priority: Priority::of(4),
            kind: BlockKind::Monitor,
            resource: "m".to_string(),
            blocked_on: on.map(ThreadId::from_u32),
            since: SimTime::ZERO,
        }
    }

    fn graph(threads: Vec<WaitingThread>) -> WaitForGraph {
        WaitForGraph {
            now: SimTime::from_micros(2_000_000),
            threads,
            stalled: Vec::new(),
            runnable: Vec::new(),
        }
    }

    fn runnable(tid: u32, name: &str, prio: u8, stalled: bool) -> RunnableThread {
        RunnableThread {
            tid: ThreadId::from_u32(tid),
            name: name.to_string(),
            priority: Priority::of(prio),
            stalled,
        }
    }

    #[test]
    fn root_follows_chain_to_unblocked_holder() {
        // a -> b -> c, where c is not in the blocked set (runnable).
        let g = graph(vec![waiting(0, "a", Some(1)), waiting(1, "b", Some(2))]);
        assert_eq!(
            g.root_of(ThreadId::from_u32(0)),
            Some(ThreadId::from_u32(2))
        );
        assert_eq!(
            g.root_of(ThreadId::from_u32(1)),
            Some(ThreadId::from_u32(2))
        );
        // c itself is not blocked: no root.
        assert_eq!(g.root_of(ThreadId::from_u32(2)), None);
    }

    #[test]
    fn cycles_are_found_once_in_canonical_rotation() {
        // 1 -> 2 -> 0 -> 1, plus a tail 3 -> 1 feeding into it.
        let g = graph(vec![
            waiting(1, "a", Some(2)),
            waiting(2, "b", Some(0)),
            waiting(0, "c", Some(1)),
            waiting(3, "d", Some(1)),
        ]);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert_eq!(
            cycles[0],
            vec![
                ThreadId::from_u32(0),
                ThreadId::from_u32(1),
                ThreadId::from_u32(2)
            ]
        );
        // A thread inside a cycle has no actionable root.
        assert_eq!(g.root_of(ThreadId::from_u32(1)), None);
        // The tail's chain dies in the cycle too.
        assert_eq!(g.root_of(ThreadId::from_u32(3)), None);
    }

    #[test]
    fn wedged_excludes_cv_waits_and_fresh_blocks() {
        let mut cv = waiting(0, "cv-waiter", None);
        cv.kind = BlockKind::Condition { has_timeout: false };
        let mut fresh = waiting(1, "fresh", None);
        fresh.since = SimTime::from_micros(1_999_000);
        let old = waiting(2, "old", None);
        let g = graph(vec![cv, fresh, old]);
        let wedged = g.wedged(SimDuration::from_micros(1_500_000));
        assert_eq!(wedged.len(), 1);
        assert_eq!(wedged[0].name, "old");
    }

    #[test]
    fn inversion_needs_lower_priority_runnable_holder() {
        let mut victim = waiting(0, "high", Some(1));
        victim.priority = Priority::of(6);
        let g = WaitForGraph {
            now: SimTime::from_micros(2_000_000),
            threads: vec![victim.clone()],
            stalled: Vec::new(),
            runnable: vec![runnable(1, "low-holder", 2, false)],
        };
        let invs = g.inversions(SimDuration::from_micros(1_000_000));
        assert_eq!(invs.len(), 1);
        let inv = &invs[0];
        assert_eq!(inv.victim_name, "high");
        assert_eq!(inv.holder_name, "low-holder");
        assert!(!inv.holder_stalled);
        assert_eq!(inv.kind, BlockKind::Monitor);

        // An equal-priority holder is contention, not inversion.
        let g2 = WaitForGraph {
            runnable: vec![runnable(1, "peer", 6, false)],
            ..g.clone()
        };
        assert!(g2
            .inversions(SimDuration::from_micros(1_000_000))
            .is_empty());

        // A holder that is itself blocked (not runnable) is a deadlock
        // question, not an inversion.
        let g3 = WaitForGraph {
            runnable: Vec::new(),
            ..g.clone()
        };
        assert!(g3
            .inversions(SimDuration::from_micros(1_000_000))
            .is_empty());

        // A fresh block has not aged into an inversion yet.
        assert!(g.inversions(SimDuration::from_micros(2_500_000)).is_empty());
    }

    #[test]
    fn inversion_reports_stalled_holders_as_such() {
        let mut victim = waiting(0, "high", Some(1));
        victim.priority = Priority::of(6);
        victim.kind = BlockKind::Metalock;
        let g = WaitForGraph {
            now: SimTime::from_micros(2_000_000),
            threads: vec![victim],
            stalled: vec![(ThreadId::from_u32(1), "low".to_string())],
            runnable: vec![runnable(1, "low", 2, true)],
        };
        let invs = g.inversions(SimDuration::ZERO);
        assert_eq!(invs.len(), 1);
        assert!(invs[0].holder_stalled);
        assert_eq!(invs[0].kind, BlockKind::Metalock);
    }

    #[test]
    fn property_cv_waiters_never_wedge_or_invert() {
        // Satellite property: across pseudo-random graphs, a thread
        // blocked in a CV wait — with or without timeout — never shows
        // up in `wedged` or `inversions`, no matter its age, priority,
        // or how the runnable set looks.
        let mut rng = crate::SplitMix64::new(0xC0FFEE);
        for round in 0..200 {
            let n = 1 + rng.next_below(8) as u32;
            let mut threads = Vec::new();
            let mut cv_tids = Vec::new();
            for tid in 0..n {
                let mut w = waiting(tid, &format!("t{tid}"), None);
                w.priority = Priority::of(1 + rng.next_below(7) as u8);
                // Age anywhere from 0 to the full 2s snapshot window.
                w.since = SimTime::from_micros(rng.next_below(2_000_001));
                w.blocked_on = (rng.next_below(2) == 0)
                    .then(|| ThreadId::from_u32(n + rng.next_below(3) as u32));
                if rng.next_below(2) == 0 {
                    w.kind = BlockKind::Condition {
                        has_timeout: rng.next_below(2) == 0,
                    };
                    cv_tids.push(w.tid);
                }
                threads.push(w);
            }
            let runnable: Vec<RunnableThread> = (0..rng.next_below(4))
                .map(|i| {
                    runnable(
                        n + i as u32,
                        &format!("r{i}"),
                        1 + rng.next_below(7) as u8,
                        rng.next_below(2) == 0,
                    )
                })
                .collect();
            let g = WaitForGraph {
                now: SimTime::from_micros(2_000_000),
                threads,
                stalled: Vec::new(),
                runnable,
            };
            for w in g.wedged(SimDuration::ZERO) {
                assert!(
                    !cv_tids.contains(&w.tid),
                    "round {round}: CV waiter {} reported wedged",
                    w.name
                );
            }
            for inv in g.inversions(SimDuration::ZERO) {
                assert!(
                    !cv_tids.contains(&inv.victim),
                    "round {round}: CV waiter {} reported inverted",
                    inv.victim_name
                );
            }
        }
    }

    #[test]
    fn render_names_holders_and_cycles() {
        let g = graph(vec![waiting(0, "a", Some(1)), waiting(1, "b", Some(0))]);
        let r = g.render();
        assert!(r.contains("CYCLE: a (t0) -> b (t1)"), "{r}");
        assert!(r.contains("held by b"), "{r}");
    }
}
