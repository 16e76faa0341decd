//! # pcr — a deterministic reimplementation of the Portable Common Runtime's thread model
//!
//! This crate rebuilds, as a virtual-time simulation, the user-level
//! thread runtime underneath the two systems studied in *Using Threads in
//! Interactive Systems: A Case Study* (Hauser, Jacobi, Theimer, Welch,
//! Weiser; SOSP 1993): Xerox PARC's **Portable Common Runtime** (PCR)
//! implementing the **Mesa thread model**.
//!
//! The model (paper §2):
//!
//! * multiple lightweight, **pre-emptively scheduled threads** sharing an
//!   address space, created with FORK and reaped with JOIN (at most once)
//!   or DETACH;
//! * **monitors**: a mutual-exclusion lock bound to the data it protects
//!   ([`Monitor`], entered via [`ThreadCtx::enter`]);
//! * **condition variables** with per-CV timeout intervals, NOTIFY with
//!   *exactly one waiter wakens* semantics, and BROADCAST; waiters must
//!   re-check their predicate ("WAIT only in a loop");
//! * **7 strict priorities** with round-robin among equal priorities, a
//!   **50 ms timeslice**, and preemption even while holding monitor locks;
//! * YIELD, the paper's `YieldButNotToMe`, directed yields, and the
//!   SystemDaemon that donates random slices to overcome stable priority
//!   inversions (§6.2);
//! * the §6.1 NOTIFY fix (defer rescheduling until monitor exit) as a
//!   configurable [`NotifyMode`];
//! * fork-failure policies (§5.4) and the per-monitor metalock with
//!   optional cycle donation (§6.2).
//!
//! The primitive surface itself is also a trait, [`Runtime`], which
//! [`ThreadCtx`] implements by delegation: code written against
//! `C: Runtime` (the whole `paradigms` crate) runs here or on the
//! `mesa` crate's real threads, chosen by the context's type alone.
//!
//! ## How the simulation works
//!
//! Each simulated thread is a stackful coroutine on the OS thread that
//! built the [`Sim`] — as PCR's threads were multiplexed in one address
//! space — and the scheduler resumes exactly one at a time; user code
//! between two runtime calls executes in zero virtual time, and virtual
//! CPU is consumed explicitly with [`ThreadCtx::work`]. A runtime call
//! runs the kernel on the caller's own stack, and a thread switches
//! stacks only when it leaves the CPU. A simulation owns no OS thread,
//! and stays on the one that built it: a [`Sim`] is `!Send`.
//! All scheduling state lives in the [`Sim`]'s kernel, so a given
//! configuration and seed replays identically — which is what makes the
//! paper's tables reproducible as deterministic experiments.
//!
//! ## Example
//!
//! ```
//! use pcr::{millis, Priority, RunLimit, Sim, SimConfig};
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let queue = sim.monitor("queue", Vec::<u32>::new());
//! let nonempty = sim.condition(&queue, "nonempty", Some(millis(50)));
//!
//! let (qc, cv) = (queue.clone(), nonempty.clone());
//! sim.fork_root("consumer", Priority::of(5), move |ctx| {
//!     let mut g = ctx.enter(&qc);
//!     g.wait_until(&cv, |q| !q.is_empty());
//!     g.with_mut(|q| q.pop().unwrap())
//! });
//! let (qp, cv2) = (queue, nonempty);
//! sim.fork_root("producer", Priority::of(4), move |ctx| {
//!     ctx.work(millis(3));
//!     let mut g = ctx.enter(&qp);
//!     g.with_mut(|q| q.push(7));
//!     g.notify(&cv2);
//! });
//!
//! let report = sim.run(RunLimit::ToCompletion);
//! assert!(!report.deadlocked());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod condition;
mod config;
// The stack switch under every simulated thread, and the monitor data
// that the kernel's ownership rule guards without a lock: the only two
// modules this lint is lifted for (CI audits both lines).
#[allow(unsafe_code)]
mod coroutine;
mod ctx;
mod error;
mod event;
mod hazard;
mod histogram;
#[allow(unsafe_code)]
mod monitor;
mod rng;
mod runtime;
mod sched;
mod thread;
mod time;
mod waitgraph;
pub mod weakmem;
pub mod wheel;

pub use chaos::{ChaosConfig, FaultDecision, FaultSchedule, FaultSiteKind, PctConfig, StallSpec};
pub use condition::Condition;
pub use config::{ForkPolicy, NotifyMode, PolicyKind, SimConfig, SystemDaemonConfig};
#[doc(hidden)]
pub use coroutine::{stack_pool_stats, StackPoolStats};
pub use ctx::{panic_message, ForkOpts, ThreadCtx};
pub use error::{DeadlockReport, ForkError, JoinError, RunReport, StopReason};
pub use event::{
    CondId, Event, EventKind, EventMask, NullSink, TraceSink, VecSink, WaitOutcome, YieldKind,
};
pub use hazard::{Hazard, HazardConfig, HazardCounts, HazardKind, HazardMonitor};
pub use histogram::Log2Histogram;
pub use monitor::{Monitor, MonitorGuard, MonitorId};
pub use rng::SplitMix64;
pub use runtime::{Guard, Runtime};
pub use sched::policy;
pub use sched::{AllocCounters, RunLimit, SchedLatency, Sim, SimStats};
pub use thread::{JoinHandle, Priority, ThreadId, ThreadInfo};
pub use time::{micros, millis, secs, SimDuration, SimTime};
pub use waitgraph::{BlockKind, Inversion, RunnableThread, WaitForGraph, WaitingThread};
pub use wheel::{Wheel, WheelToken};

use std::sync::Once;

static PANIC_SILENCER: Once = Once::new();

/// Installs a process-wide panic hook that keeps panics raised inside a
/// simulated thread's body off the host's stderr, while chaining every
/// other panic to the previously installed hook — a panic of the kernel's
/// or a sink's while serving a call on a body's stack included. A body's
/// panics are the simulation's data — its own failure, a faulted request,
/// the private payload that unwinds live bodies when a [`Sim`] is
/// dropped — and are reported where simulations report: [`JoinError`],
/// [`SimStats::panics`], [`EventKind::Exit`].
///
/// Called automatically by [`Sim::new`]; safe to call repeatedly.
pub(crate) fn install_panic_silencer() {
    PANIC_SILENCER.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !coroutine::body_on_cpu() || ctx::IN_KERNEL.get() {
                previous(info);
            }
        }));
    });
}
