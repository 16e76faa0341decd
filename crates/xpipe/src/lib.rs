//! # xpipe — the X-server pipeline case studies
//!
//! The engineering lessons of the paper's §5 and §6, as runnable
//! experiments on the [`pcr`] simulator:
//!
//! * [`slackbench`] — §5.2's slack-process buffer thread: plain YIELD vs
//!   `YieldButNotToMe` (the ~3× perceived-performance fix), and §6.3's
//!   quantum sweep showing the 50 ms timeslice is what actually clocks
//!   the batching;
//! * [`spurious`] — §6.1's spurious lock conflicts and the
//!   deferred-reschedule NOTIFY fix;
//! * [`inversion`] — §6.2's stable priority inversion, the SystemDaemon
//!   workaround, and the metalock cycle-donation ablation;
//! * [`xlib`] — §5.6's threaded-Xlib vs X1 connection management
//!   (excessive flushes and the held-mutex inversion window vs a
//!   dedicated reading thread);
//! * [`server`] — the simulated X server with per-batch costs that make
//!   batching economics real;
//! * [`exploiters`] — §4.7's concurrency exploiters measured on several
//!   virtual processors ([`pcr::Sim::with_cpus`]): speedup curves with
//!   and without a serializing shared monitor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exploiters;
pub mod inversion;
pub mod server;
pub mod slackbench;
pub mod spurious;
pub mod xlib;
