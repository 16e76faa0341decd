//! The harness's one failure predicate.
//!
//! Every place that asks "has this world failed?" — a fuzz trial's slice
//! loop, the supervisor's watch and its `healthy_at_end`, the
//! unsupervised comparison runs of `repro chaos --recover` — reads the
//! same [`Verdict`] off a [`Sim`] and the [`RunReport`] of its last
//! slice, so no two of them can disagree about the same world.

use pcr::{RunReport, Sim, SimDuration, WaitForGraph, WaitingThread};

/// What [`judge`] makes of a world after a slice.
#[derive(Debug)]
pub enum Verdict {
    /// Nothing panicked and nothing is stuck.
    Healthy,
    /// World threads panicked: their names, in thread order.
    Panicked(Vec<String>),
    /// Threads are stuck.
    Stuck {
        /// The slice ended in a global deadlock: `threads` is every
        /// blocked thread of `graph` (the clock has stopped, so the
        /// wedge age is moot). Otherwise `threads` is the ones blocked
        /// past the wedge threshold.
        deadlock: bool,
        /// The wait-for graph the stuck threads were read from.
        graph: WaitForGraph,
        /// The stuck threads.
        threads: Vec<WaitingThread>,
    },
}

impl Verdict {
    /// True for [`Verdict::Healthy`].
    pub fn is_healthy(&self) -> bool {
        matches!(self, Verdict::Healthy)
    }
}

/// Judges `sim` after the slice that `report` describes. A panic wins;
/// then a global deadlock; then a partial wedge: threads blocked for at
/// least `wedge_threshold` (see [`WaitForGraph::wedged`]). `None` turns
/// the wedge check off, leaving panics and global deadlock.
///
/// The wait-for graph is taken only when a deadlock or the wedge check
/// needs it, and a healthy verdict allocates nothing beyond it.
pub fn judge(sim: &Sim, report: &RunReport, wedge_threshold: Option<SimDuration>) -> Verdict {
    if sim.stats().panics > 0 {
        let names = sim.threads_iter().filter(|t| t.panicked);
        return Verdict::Panicked(names.map(|t| t.name.to_string()).collect());
    }
    let deadlock = report.deadlocked();
    if !deadlock && wedge_threshold.is_none() {
        return Verdict::Healthy;
    }
    let graph = sim.wait_for_graph();
    let threads: Vec<WaitingThread> = match wedge_threshold {
        Some(threshold) if !deadlock => graph.wedged(threshold).into_iter().cloned().collect(),
        _ => graph.threads.clone(),
    };
    if !deadlock && threads.is_empty() {
        return Verdict::Healthy;
    }
    Verdict::Stuck {
        deadlock,
        graph,
        threads,
    }
}
