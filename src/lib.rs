//! # threadstudy — facade crate
//!
//! Reproduction of *Using Threads in Interactive Systems: A Case Study*
//! (Hauser, Jacobi, Theimer, Welch, Weiser; SOSP 1993). This crate
//! re-exports the workspace's components under one roof:
//!
//! * [`pcr`] — the deterministic virtual-time rebuild of the Portable
//!   Common Runtime's Mesa thread model (the substrate both studied
//!   systems ran on);
//! * [`trace`] — instrumentation: event collectors, rate counters,
//!   execution-interval histograms, genealogy (the paper's measurement
//!   apparatus);
//! * [`paradigms`] — the ten thread-usage paradigms (the paper's
//!   taxonomy, [`paradigms::Paradigm`]) as reusable components, written
//!   once against [`pcr::Runtime`];
//! * [`mesa`] — the real-thread backend of that trait: hand `paradigms`
//!   a [`mesa::RealCtx`] and the catalogue runs on `std::thread`s;
//! * [`workloads`] — synthetic Cedar and GVX worlds, the paper's
//!   twelve benchmarks and Table 4's census counts;
//! * [`serverd`] — the overload-resilient serve world, the largest here
//!   ([`serverd::ServeSpec`]: a fleet of sessions against an
//!   input-to-echo pipeline).
//!
//! The §5/§6 experiments are the `bench` crate's `repro` commands, not
//! part of this facade.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results of every table and figure.
//!
//! # Example: a serializer (§4.6) on each backend
//!
//! ```
//! use threadstudy::mesa::RealCtx;
//! use threadstudy::paradigms::serializer::MbQueue;
//! use threadstudy::pcr::{micros, Guard, Priority, RunLimit, Runtime, Sim, SimConfig};
//!
//! /// Enqueues 0..5 on an `MbQueue`; returns the order they were applied.
//! fn serialize<C: Runtime>(ctx: &C) -> Vec<u32> {
//!     let log = ctx.new_monitor("log", Vec::new());
//!     let full = ctx.new_condition(&log, "full", None);
//!     let mb = MbQueue::new(ctx, "mbqueue", Priority::DEFAULT, 8);
//!     for i in 0..5 {
//!         let (log, full) = (log.clone(), full.clone());
//!         mb.enqueue(ctx, micros(10), move |ctx: &C| {
//!             let mut g = ctx.enter(&log);
//!             g.with_mut(|v| v.push(i));
//!             g.notify(&full);
//!         });
//!     }
//!     mb.stop(ctx);
//!     let mut g = ctx.enter(&log);
//!     g.wait_until(&full, |v| v.len() == 5);
//!     g.with(|v| v.clone())
//! }
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let h = sim.fork_root("ui", Priority::DEFAULT, |ctx| serialize(ctx));
//! sim.run(RunLimit::ToCompletion);
//! assert_eq!(h.into_result().unwrap().unwrap(), [0, 1, 2, 3, 4]);
//!
//! assert_eq!(serialize(&RealCtx::root()), [0, 1, 2, 3, 4]);
//! ```

#![warn(missing_docs)]

pub use mesa;
pub use paradigms;
pub use pcr;
pub use serverd;
pub use trace;
pub use workloads;
