//! The runtime's event stream.
//!
//! Every scheduling-relevant action emits an [`Event`] to the installed
//! [`TraceSink`], mirroring the microsecond-resolution thread-event traces
//! the paper's authors collected from their instrumented PCR. The
//! `threadstudy-trace` crate provides collectors (rate counters, interval
//! histograms, genealogy) built on this stream.

use crate::monitor::MonitorId;
use crate::thread::{Priority, ThreadId};
use crate::time::{SimDuration, SimTime};

/// Identifier of a condition variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CondId(pub(crate) u32);

impl CondId {
    /// Returns the raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from its raw index — for trace tooling that works
    /// with exported (flattened) event records.
    pub const fn from_u32(v: u32) -> CondId {
        CondId(v)
    }
}

/// How a condition-variable WAIT completed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitOutcome {
    /// A NOTIFY or BROADCAST woke the waiter.
    Notified,
    /// The CV's timeout expired first. Table 2 shows 48–82 % of Cedar
    /// waits and 42–99 % of GVX waits ended this way.
    TimedOut,
    /// The waiter resumed although nobody notified and no timeout fired —
    /// only produced by chaos injection
    /// ([`crate::ChaosConfig::spurious_wakeups`], §5.3). Correct Mesa
    /// code treats this exactly like `Notified`: re-check the predicate.
    Spurious,
}

/// Which yield primitive a thread invoked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum YieldKind {
    /// Plain YIELD: run the scheduler.
    Normal,
    /// `YieldButNotToMe` (§5.2): give the processor to the highest
    /// priority ready thread other than the caller.
    ButNotToMe,
    /// A directed yield donating a slice to a specific thread.
    Directed(ThreadId),
}

/// One runtime event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// Virtual time of the event.
    pub t: SimTime,
    /// What happened.
    pub kind: EventKind,
}

/// A set of [`EventKind`]s, one bit per kind.
///
/// Sinks advertise the kinds they consume through
/// [`TraceSink::subscriptions`]; the scheduler skips event construction
/// and dynamic dispatch entirely for kinds nobody subscribed to, which
/// is what makes an un-instrumented run (no sink, no hazard monitor)
/// pay only for its counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EventMask(u32);

impl EventMask {
    /// No kinds.
    pub const EMPTY: EventMask = EventMask(0);
    /// Every kind, including any added later.
    pub const ALL: EventMask = EventMask(u32::MAX);

    /// The mask containing exactly `kind`.
    pub const fn of(kind: &EventKind) -> EventMask {
        EventMask(1 << kind.ord())
    }

    /// True if `kind` is in the mask.
    pub const fn contains(&self, kind: &EventKind) -> bool {
        self.0 & (1 << kind.ord()) != 0
    }

    /// The union of two masks.
    pub const fn union(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }

    /// This mask with `kind` removed.
    pub const fn without(self, kind: &EventKind) -> EventMask {
        EventMask(self.0 & !(1 << kind.ord()))
    }

    /// True if no kind is in the mask.
    pub const fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// The kinds of thread events the instrumented runtime reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A thread was created.
    Fork {
        /// Forking thread (`None` for roots created before the run).
        parent: Option<ThreadId>,
        /// The new thread.
        child: ThreadId,
        /// Its initial priority.
        priority: Priority,
        /// Fork generation (roots are 0).
        generation: u32,
    },
    /// A thread terminated.
    Exit {
        /// The exiting thread.
        tid: ThreadId,
        /// True if it terminated by panic.
        panicked: bool,
    },
    /// A JOIN completed.
    Join {
        /// The joining thread.
        joiner: ThreadId,
        /// The joined (now exited) thread.
        target: ThreadId,
    },
    /// A thread was detached.
    Detach {
        /// The detaching thread.
        tid: ThreadId,
        /// The detached thread.
        target: ThreadId,
    },
    /// The scheduler dispatched a different thread.
    Switch {
        /// Previously running thread, if any.
        from: Option<ThreadId>,
        /// Newly running thread.
        to: ThreadId,
        /// Its priority at dispatch.
        to_priority: Priority,
        /// How long `to` sat in the ready queue before this dispatch —
        /// the wakeup-to-run scheduler latency of §6.2/§6.3. Feeds
        /// [`crate::SchedLatency`] and the trace exporters.
        ready_for: SimDuration,
    },
    /// A running thread exhausted its timeslice.
    QuantumExpired {
        /// The thread whose quantum ended.
        tid: ThreadId,
    },
    /// A thread entered a monitor.
    MlEnter {
        /// The entering thread.
        tid: ThreadId,
        /// The monitor.
        monitor: MonitorId,
        /// True if the mutex was held and the thread had to queue.
        contended: bool,
    },
    /// A queued thread was granted a monitor it had been waiting for:
    /// either its contended [`EventKind::MlEnter`] finally succeeded, or
    /// a notified CV waiter reacquired the monitor on its way out of a
    /// wait. The grant happens when the previous owner releases; the
    /// grantee may only *run* later, so the gap between this event and
    /// the next [`EventKind::Switch`] to the grantee is scheduler
    /// latency, not lock hold time. Hold spans in the exporters run from
    /// an uncontended `MlEnter` *or* an `MlAcquired` to the matching
    /// [`EventKind::MlExit`].
    MlAcquired {
        /// The thread that now owns the monitor.
        tid: ThreadId,
        /// The monitor.
        monitor: MonitorId,
    },
    /// A thread exited a monitor.
    MlExit {
        /// The exiting thread.
        tid: ThreadId,
        /// The monitor.
        monitor: MonitorId,
    },
    /// A thread began waiting on a condition variable.
    CvWait {
        /// The waiting thread.
        tid: ThreadId,
        /// The condition variable.
        cv: CondId,
    },
    /// A waiting thread resumed (inside the monitor again).
    CvWake {
        /// The awakened thread.
        tid: ThreadId,
        /// The condition variable.
        cv: CondId,
        /// How the wait ended.
        outcome: WaitOutcome,
    },
    /// NOTIFY was invoked.
    Notify {
        /// The notifying thread.
        tid: ThreadId,
        /// The condition variable.
        cv: CondId,
        /// The single waiter awakened, if any.
        woken: Option<ThreadId>,
    },
    /// BROADCAST was invoked.
    Broadcast {
        /// The broadcasting thread.
        tid: ThreadId,
        /// The condition variable.
        cv: CondId,
        /// Number of waiters awakened.
        woken: u32,
    },
    /// A notified thread was dispatched only to block on the still-held
    /// monitor mutex — the useless scheduler trip of §6.1.
    SpuriousLockConflict {
        /// The thread that wasted the dispatch.
        tid: ThreadId,
        /// The contended monitor.
        monitor: MonitorId,
    },
    /// A yield primitive ran.
    Yield {
        /// The yielding thread.
        tid: ThreadId,
        /// Which primitive.
        kind: YieldKind,
    },
    /// A thread changed its own priority.
    SetPriority {
        /// The thread.
        tid: ThreadId,
        /// Its new priority.
        priority: Priority,
    },
    /// A thread went to sleep until the given wake time.
    Sleep {
        /// The sleeping thread.
        tid: ThreadId,
        /// Absolute wake time (already rounded to timer granularity for
        /// non-precise sleeps).
        until: SimTime,
    },
    /// The SystemDaemon donated a slice to a thread.
    DaemonDonation {
        /// The recipient.
        target: ThreadId,
    },
    /// A FORK blocked waiting for thread resources (§5.4).
    ForkBlocked {
        /// The blocked forker.
        tid: ThreadId,
    },
    /// A FORK failed with an error (§5.4).
    ForkFailed {
        /// The failed forker.
        tid: ThreadId,
    },
    /// A thread stalled on a monitor's metalock while its holder was
    /// preempted (only possible with metalock donation disabled).
    MetalockStall {
        /// The stalled thread.
        tid: ThreadId,
        /// The monitor whose metalock is held.
        monitor: MonitorId,
        /// The preempted holder.
        holder: ThreadId,
    },
    /// Chaos injection woke a waiter spuriously (§5.3); the waiter's
    /// subsequent [`EventKind::CvWake`] carries
    /// [`WaitOutcome::Spurious`].
    SpuriousWakeup {
        /// The spuriously awakened waiter.
        tid: ThreadId,
        /// The condition it was waiting on.
        cv: CondId,
    },
    /// Chaos injection silently discarded a NOTIFY that had at least one
    /// waiter — a synthetic §5.3 lost wakeup.
    NotifyDropped {
        /// The notifying thread (which believes the notify happened).
        tid: ThreadId,
        /// The condition variable.
        cv: CondId,
    },
    /// Chaos injection made a NOTIFY wake a second waiter (§5.3's
    /// "exactly one" guarantee violated on purpose).
    NotifyDuplicated {
        /// The notifying thread.
        tid: ThreadId,
        /// The condition variable.
        cv: CondId,
        /// The extra waiter awakened beyond the legitimate one.
        extra: ThreadId,
    },
    /// Chaos injection stalled a thread: it cannot be scheduled until
    /// `until` (models §5.2's unresponsive server / §6.2's preempted
    /// holder).
    ChaosStall {
        /// The stalled thread.
        tid: ThreadId,
        /// When it becomes schedulable again.
        until: SimTime,
    },
    /// Chaos injection failed a FORK (§5.4) that policy alone would have
    /// allowed.
    ChaosForkFail {
        /// The forking thread that received the error.
        tid: ThreadId,
    },
    /// A JOIN blocked because the target had not yet exited. The
    /// matching [`EventKind::Join`] is emitted when it completes.
    JoinBlocked {
        /// The blocked joining thread.
        joiner: ThreadId,
        /// The thread being joined.
        target: ThreadId,
    },
}

impl EventKind {
    /// Stable ordinal of the kind, used as its [`EventMask`] bit.
    const fn ord(&self) -> u32 {
        match self {
            EventKind::Fork { .. } => 0,
            EventKind::Exit { .. } => 1,
            EventKind::Join { .. } => 2,
            EventKind::Detach { .. } => 3,
            EventKind::Switch { .. } => 4,
            EventKind::QuantumExpired { .. } => 5,
            EventKind::MlEnter { .. } => 6,
            EventKind::MlExit { .. } => 7,
            EventKind::CvWait { .. } => 8,
            EventKind::CvWake { .. } => 9,
            EventKind::Notify { .. } => 10,
            EventKind::Broadcast { .. } => 11,
            EventKind::SpuriousLockConflict { .. } => 12,
            EventKind::Yield { .. } => 13,
            EventKind::SetPriority { .. } => 14,
            EventKind::Sleep { .. } => 15,
            EventKind::DaemonDonation { .. } => 16,
            EventKind::ForkBlocked { .. } => 17,
            EventKind::ForkFailed { .. } => 18,
            EventKind::MetalockStall { .. } => 19,
            EventKind::SpuriousWakeup { .. } => 20,
            EventKind::NotifyDropped { .. } => 21,
            EventKind::NotifyDuplicated { .. } => 22,
            EventKind::ChaosStall { .. } => 23,
            EventKind::ChaosForkFail { .. } => 24,
            EventKind::JoinBlocked { .. } => 25,
            EventKind::MlAcquired { .. } => 26,
        }
    }
}

/// Receiver for the runtime's event stream.
pub trait TraceSink: Send + 'static {
    /// Records one event. Called synchronously from the scheduler; keep it
    /// cheap.
    fn record(&mut self, ev: &Event);

    /// The event kinds this sink consumes. The scheduler caches the mask
    /// at installation time ([`crate::Sim::set_sink`]) and never calls
    /// [`TraceSink::record`] for a kind outside it, so a selective sink
    /// skips the dynamic dispatch for everything else. The default is
    /// every kind.
    fn subscriptions(&self) -> EventMask {
        EventMask::ALL
    }

    /// Converts the boxed sink into `Any`, so a concrete collector can be
    /// recovered after [`crate::Sim::take_sink`]. Implementations are
    /// one line: `fn into_any(self: Box<Self>) -> Box<dyn Any> { self }`.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// A sink that discards everything.
#[derive(Default, Debug, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _ev: &Event) {}

    fn subscriptions(&self) -> EventMask {
        EventMask::EMPTY
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// A sink that stores every event in order.
#[derive(Default, Debug)]
pub struct VecSink {
    /// The recorded events.
    pub events: Vec<Event>,
}

impl TraceSink for VecSink {
    fn record(&mut self, ev: &Event) {
        self.events.push(*ev);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_records_in_order() {
        let mut sink = VecSink::default();
        for i in 0..3 {
            sink.record(&Event {
                t: SimTime::from_micros(i),
                kind: EventKind::QuantumExpired { tid: ThreadId(0) },
            });
        }
        assert_eq!(sink.events.len(), 3);
        assert!(sink.events.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn null_sink_is_a_no_op() {
        NullSink.record(&Event {
            t: SimTime::ZERO,
            kind: EventKind::Exit {
                tid: ThreadId(9),
                panicked: false,
            },
        });
    }
}
