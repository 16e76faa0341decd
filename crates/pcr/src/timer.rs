//! The runtime's timer queue: the hierarchical timer wheel from
//! [`crate::wheel`], instantiated over the scheduler's [`TimerKind`].
//!
//! Holds pending wakeups: sleeps and condition-variable timeouts.
//! Quantization to the timer granularity happens at insertion time, by
//! the caller; the wheel behaves as an exact priority queue ordered by
//! (deadline, insertion sequence) so same-deadline timers fire FIFO —
//! byte-for-byte the order the previous `BinaryHeap` implementation
//! produced, which is what keeps traces replay-identical. It holds live
//! timers only: a CV wait keeps the tokens of its timers, and whatever
//! ends the wait cancels what is left of them, so a quantised deadline is
//! shared by the waits still on, not by every wait of the tick. The wheel
//! mechanics (layout, cascading, cancellation) live in [`crate::wheel`]
//! so workloads can reuse them for their own deadline bookkeeping.

use crate::event::CondId;
use crate::thread::ThreadId;

/// What to do when a timer fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TimerKind {
    /// Wake a sleeping thread.
    Wake(ThreadId),
    /// Time out `tid`'s wait on `cv`. Whatever ends the wait first cancels
    /// it (the waiter's `Tcb` keeps the token): in the wheel, it is live.
    CvTimeout { tid: ThreadId, cv: CondId },
    /// Chaos: wake a CV waiter spuriously. Cancelled like `CvTimeout`.
    ChaosSpuriousWake { tid: ThreadId, cv: CondId },
    /// Chaos: begin the stall described by `ChaosConfig.stalls[spec]`.
    ChaosStallStart { spec: u32 },
    /// Chaos: the stalled thread becomes schedulable again.
    ChaosStallEnd(ThreadId),
}

/// Pending runtime timers, ordered by `(deadline, insertion seq)`.
pub(crate) type TimerWheel = crate::wheel::Wheel<TimerKind>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{millis, SimTime};

    /// The runtime aliases stay drop-in: a token cancels its entry and
    /// may be discarded (a sleep's is), pop order is (deadline, seq).
    #[test]
    fn runtime_alias_round_trip() {
        let mut w = TimerWheel::new();
        let _ = w.schedule(SimTime::ZERO + millis(2), TimerKind::Wake(ThreadId(1)));
        let tok = w.schedule(
            SimTime::ZERO + millis(1),
            TimerKind::ChaosStallEnd(ThreadId(2)),
        );
        assert_eq!(w.next_deadline(), Some(SimTime::ZERO + millis(1)));
        assert!(w.cancel(tok));
        assert_eq!(
            w.pop_due(SimTime::ZERO + millis(5)),
            Some(TimerKind::Wake(ThreadId(1)))
        );
        assert!(w.is_empty());
    }
}
