//! The requests a simulated thread makes of its scheduler, and the replies.
//!
//! Each simulated thread is a stackful coroutine on the OS thread that
//! built the simulation ([`crate::coroutine`]), so exactly one runs at a
//! time by construction. A [`Request`] is an argument, not a message: the
//! kernel serves it on the requesting body's own stack and returns the
//! [`Reply`], and only a thread that has left the CPU parks, to be resumed
//! with its reply by a later dispatch. (With more than one virtual CPU a
//! thread parks after every request and the run loop hands out the
//! replies in CPU-index order; the request is served the same way.)
//! User code between two requests executes in zero virtual time; virtual
//! time advances only through explicit costs the scheduler processes, so
//! the simulation is deterministic.

use std::sync::Arc;

use crate::event::{CondId, WaitOutcome};
use crate::monitor::MonitorId;
use crate::thread::{Priority, ThreadId};
use crate::time::SimDuration;

/// A simulated thread body, already wrapped for result capture and panic
/// handling.
pub(crate) type BodyFn = Box<dyn FnOnce(&crate::ctx::ThreadCtx) + Send + 'static>;

/// Everything the scheduler needs to create a thread.
pub(crate) struct ForkSpec {
    pub name: String,
    pub priority: Option<Priority>,
    pub detached: bool,
    pub body: BodyFn,
}

impl std::fmt::Debug for ForkSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForkSpec")
            .field("name", &self.name)
            .field("priority", &self.priority)
            .field("detached", &self.detached)
            .finish_non_exhaustive()
    }
}

/// A request from the running thread to the scheduler.
#[derive(Debug)]
pub(crate) enum Request {
    /// Create a thread.
    Fork(ForkSpec),
    /// Wait for a thread to exit.
    Join(ThreadId),
    /// Mark a thread as never-to-be-joined.
    Detach(ThreadId),
    /// Consume virtual CPU time (preemptible).
    Work(SimDuration),
    /// Sleep. `precise` sleeps wake exactly on time (modelling external
    /// device events delivered by the host OS); plain sleeps are quantized
    /// to the timer granularity like PCR timeouts.
    Sleep { d: SimDuration, precise: bool },
    /// Plain YIELD.
    Yield,
    /// `YieldButNotToMe` (§5.2).
    YieldButNotToMe,
    /// Directed yield: donate `slice` to `target` if it is ready.
    DirectedYield {
        target: ThreadId,
        slice: SimDuration,
    },
    /// Donate `slice` to a randomly chosen ready thread (SystemDaemon).
    DonateRandom { slice: SimDuration },
    /// Change own priority.
    SetPriority(Priority),
    /// Enter a monitor.
    MonitorEnter(MonitorId),
    /// Exit a monitor.
    MonitorExit(MonitorId),
    /// Atomically exit the CV's monitor and wait on the CV.
    CvWait { cv: CondId },
    /// Wake at most one waiter.
    Notify { cv: CondId },
    /// Wake all waiters.
    Broadcast { cv: CondId },
    /// Allocate a monitor id.
    NewMonitor { name: Arc<str> },
    /// Allocate a condition-variable id.
    NewCondition {
        name: Arc<str>,
        monitor: MonitorId,
        timeout: Option<SimDuration>,
    },
    /// Thread terminated (normally or by panic). Always posted: the body's
    /// final switch delivers it to the scheduler's side, which recycles
    /// the stack, and no reply follows.
    Exit { panicked: bool },
}

/// The scheduler's reply that resumes a parked thread.
///
/// A `Copy` value of 8 bytes, `Option` included, so that `Kernel::serve`
/// hands it back in a register. Nearly every call is served in place, and a
/// wider reply (24 bytes when a fault carried its text) went through memory
/// in narrow stores read back by one wide load: a store-forwarding stall on
/// every call. A fault's text therefore waits kernel-side, for the faulting
/// thread to take it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reply {
    /// Generic completion.
    Ok,
    /// Fork succeeded.
    Forked(ThreadId),
    /// Fork failed under [`crate::ForkPolicy::Error`].
    ForkFailed,
    /// Join target has exited.
    Joined,
    /// A CV wait finished with this outcome.
    Wait(WaitOutcome),
    /// Fresh monitor id.
    MonitorId(MonitorId),
    /// Fresh condition id.
    CondId(CondId),
    /// The request was illegal (recursive monitor entry, exiting an
    /// unowned monitor, CV op without the lock...). The thread panics
    /// with the message the kernel keeps for it; the simulation continues.
    Fault,
    /// The simulation is tearing down: unwind out of the thread body.
    Shutdown,
}

// What keeps a reply in a register: no heap field, no drop glue.
const _: () = assert!(size_of::<Option<Reply>>() <= 8);
const _: fn() = || {
    fn copy<T: Copy>() {}
    copy::<Reply>();
};

/// Panic payload used to unwind a simulated thread at shutdown.
pub(crate) struct ShutdownSignal;
