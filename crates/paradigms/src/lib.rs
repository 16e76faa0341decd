//! # paradigms — the ten thread-usage paradigms, written once
//!
//! The paper's §4 classifies every thread-creation site in Cedar and GVX
//! into ten paradigms; [`Paradigm`] names them, with Table 4's row
//! labels. This crate implements each as a reusable component against
//! [`pcr::Runtime`] — the §2 primitive surface as a trait the thread
//! context implements — in the paper's order:
//!
//! | § | Paradigm | Here |
//! |---|----------|------|
//! | 4.1 | Defer work | [`defer`], [`deferred`] |
//! | 4.2 | General pumps | [`pump`] ([`pump::BoundedQueue`], [`pump::spawn_pump`]), [`pipeline`] |
//! | 4.2 | Slack processes | [`slack`] ([`slack::spawn_slack`], [`slack::SlackPolicy`]) |
//! | 4.3 | Sleepers | [`sleeper`] ([`sleeper::Periodical`]) |
//! | 4.3 | One-shots | [`oneshot`] ([`oneshot::delayed_fork`], [`oneshot::GuardedButton`]) |
//! | 4.4 | Deadlock avoiders | [`deadlock_avoid`] |
//! | 4.5 | Task rejuvenation | [`rejuvenate`] |
//! | 4.6 | Serializers | [`serializer`] ([`serializer::MbQueue`]) |
//! | 4.7 | Concurrency exploiters | [`exploit`] |
//! | 4.8 | Encapsulated forks | the packaged constructors throughout ([`oneshot::delayed_fork`] = `DelayedFork`, [`sleeper::Periodical`] = `PeriodicalFork`, [`serializer::MbQueue`] = `MBQueue`) |
//!
//! The backend is the type of the context and nothing else. Structs
//! take a defaulted parameter — `BoundedQueue<T>` is
//! `BoundedQueue<T, pcr::ThreadCtx>`, the simulator — and functions
//! infer it from `ctx`, so simulator code names no backend at all;
//! `BoundedQueue<T, mesa::RealCtx>` is the same queue on real threads.
//!
//! [`mistakes`] reproduces §5.3's anti-patterns (IF-based WAIT,
//! timeout-masked missing NOTIFYs) for the experiments that measure
//! their cost; it stays on the simulator, as do the `*_in_sim`
//! constructors that build a component before the run starts.
//!
//! # Example: one pipeline, both backends
//!
//! ```
//! use mesa::RealCtx;
//! use paradigms::pipeline::pipeline;
//! use pcr::{millis, Priority, RunLimit, Runtime, Sim, SimConfig};
//!
//! /// Written once: two pump stages between bounded buffers (§4.2).
//! fn run<C: Runtime>(ctx: &C) -> Vec<u32> {
//!     let p = pipeline::<u32, C>(ctx, "p", 8, Priority::of(4))
//!         .stage(millis(1), |x| Some(x * 2))
//!         .stage(millis(1), |x| Some(x + 1))
//!         .build();
//!     for i in 0..4 {
//!         p.source.put(ctx, i);
//!     }
//!     p.source.close(ctx);
//!     std::iter::from_fn(|| p.sink.take(ctx)).collect()
//! }
//!
//! // On the simulator: deterministic virtual time.
//! let mut sim = Sim::new(SimConfig::default());
//! let h = sim.fork_root("main", Priority::of(5), |ctx| run(ctx));
//! sim.run(RunLimit::For(pcr::secs(10)));
//! assert_eq!(h.into_result().unwrap().unwrap(), [1, 3, 5, 7]);
//!
//! // On real threads: the same function, handed the other context.
//! assert_eq!(run(&RealCtx::root()), [1, 3, 5, 7]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callbacks;
pub mod deadlock_avoid;
pub mod defer;
pub mod deferred;
pub mod exploit;
pub mod mistakes;
pub mod oneshot;
mod paradigm;
pub mod pipeline;
pub mod pump;
pub mod rejuvenate;
pub mod serializer;
pub mod slack;
pub mod sleeper;

pub use paradigm::Paradigm;
