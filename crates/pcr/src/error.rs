//! Error and report types for the simulated runtime.

use core::fmt;

use crate::hazard::HazardCounts;
use crate::time::{SimDuration, SimTime};
use crate::waitgraph::WaitingThread;

/// Why a [`crate::Sim::run`] call stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The requested virtual-time limit was reached.
    TimeLimit,
    /// Every simulated thread has exited.
    AllExited,
    /// No thread is runnable and no timer is pending: the remaining
    /// threads can never make progress.
    Deadlock(DeadlockReport),
}

/// Result of a [`crate::Sim::run`] call.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Why the run stopped.
    pub reason: StopReason,
    /// Virtual clock value when the run stopped.
    pub now: SimTime,
    /// Virtual time that elapsed during this `run` call.
    pub elapsed: SimDuration,
    /// Hazards detected so far, when
    /// [`crate::SimConfig::with_hazard_detection`] is enabled (all zero
    /// otherwise). Cumulative across successive `run` calls on one sim.
    pub hazards: HazardCounts,
}

impl RunReport {
    /// Returns true if the run ended in deadlock.
    pub fn deadlocked(&self) -> bool {
        matches!(self.reason, StopReason::Deadlock(_))
    }

    /// Returns true if any hazard was detected.
    pub fn hazardous(&self) -> bool {
        self.hazards.total() > 0
    }
}

/// A wait-for description of a deadlocked system: the blocked threads of
/// [`crate::Sim::wait_for_graph`] at the instant nothing could run again.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct DeadlockReport {
    /// Every thread that is alive but can never run again.
    pub blocked: Vec<WaitingThread>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock: {} thread(s) blocked forever",
            self.blocked.len()
        )?;
        for b in &self.blocked {
            let (kind, on) = (b.kind.tag(), &b.resource);
            write!(f, "  {:?} \"{}\": {kind} {on}", b.tid, b.name)?;
            if let Some(on) = b.blocked_on {
                write!(f, " (held by {on:?})")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Error returned when a FORK cannot be satisfied.
///
/// Mirrors §5.4 of the paper: under the `Error` fork policy an exhausted
/// thread table raises an error the forker must handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForkError {
    /// The configured thread limit was reached.
    ResourcesExhausted,
}

impl fmt::Display for ForkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForkError::ResourcesExhausted => write!(f, "fork failed: thread resources exhausted"),
        }
    }
}

impl std::error::Error for ForkError {}

/// Error returned by JOIN.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JoinError {
    /// The joined thread panicked; the payload's message is included.
    Panicked(String),
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::Panicked(msg) => write!(f, "joined thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for JoinError {}
