//! Condition variables.
//!
//! Each condition variable belongs to one monitor and represents a state
//! of that monitor's data (a *condition*) plus a queue of threads waiting
//! for the condition to become true. WAITs may time out: the timeout
//! interval is a property of the CV, set at creation, and deadlines are
//! quantized to the runtime's timer granularity (50 ms in PCR).

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use crate::event::CondId;
use crate::monitor::{MonitorId, SimId};
use crate::thread::ThreadId;
use crate::time::SimDuration;

/// A condition variable handle.
///
/// Cloning the handle refers to the same queue. NOTIFY has *exactly one
/// waiter wakens* semantics and is only a performance hint: waiters must
/// re-check their predicate, so BROADCAST can always be substituted
/// without affecting correctness (§2).
#[derive(Clone)]
pub struct Condition {
    pub(crate) id: CondId,
    pub(crate) monitor: MonitorId,
    /// The simulation that made it: WAIT, NOTIFY and BROADCAST refuse a
    /// CV of another one, whose id may name any CV of the caller's.
    pub(crate) sim: SimId,
    pub(crate) timeout: Option<SimDuration>,
}

// By hand, to leave out `sim`: no output depends on how many worlds the
// process built before this one.
impl fmt::Debug for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condition")
            .field("id", &self.id)
            .field("monitor", &self.monitor)
            .field("timeout", &self.timeout)
            .finish()
    }
}

impl Condition {
    /// The CV's identity in the event stream.
    pub fn id(&self) -> CondId {
        self.id
    }

    /// The monitor this CV belongs to.
    pub fn monitor_id(&self) -> MonitorId {
        self.monitor
    }

    /// The timeout interval associated with this CV, if any.
    pub fn timeout(&self) -> Option<SimDuration> {
        self.timeout
    }
}

/// A scheduler's record of one CV. The name lives here and nowhere else
/// ([`crate::Sim::condition_names`] shares it out).
pub(crate) struct CvState {
    pub(crate) name: Arc<str>,
    pub(crate) monitor: MonitorId,
    pub(crate) timeout: Option<SimDuration>,
    /// Waited on at least once: counted in `SimStats::distinct_conditions`.
    pub(crate) waited: bool,
    /// Waiters in arrival order. A timeout or spurious wake removes its
    /// entry, so everything queued is still waiting.
    pub(crate) queue: VecDeque<ThreadId>,
}

impl CvState {
    pub(crate) fn new(name: Arc<str>, monitor: MonitorId, timeout: Option<SimDuration>) -> Self {
        CvState {
            name,
            monitor,
            timeout,
            waited: false,
            queue: VecDeque::new(),
        }
    }
}
