//! The overload-resilient server world: "millions of users" on the
//! paper's runtime.
//!
//! Cedar and GVX (the two systems in the study) run ~35 eternal threads
//! for *one* user. This crate scales the same input-to-echo pipeline to
//! an open-loop stream of 10k–1M simulated client sessions — and since
//! each simulated `pcr` thread owns a stack, the sessions are
//! *data* driven by a small fixed set of pipeline threads, not threads
//! themselves (the event-driven discipline of PAPERS.md's CCP
//! interpreters).
//!
//! The robustness toolkit, end to end:
//!
//! - **Open-loop traffic** ([`traffic`]): keyboard/mouse/scroll session
//!   classes, diurnal ramps and bursts, all seeded.
//! - **Admission control** ([`admission`]): a token bucket per session
//!   class at the ingress edge.
//! - **Bounded queues + backpressure**: `paradigms::pump::BoundedQueue`
//!   between every stage; a full ingress queue rejects, never blocks
//!   the client loop.
//! - **Deadline shedding** ([`codel`] + worker dequeue checks): drop
//!   requests whose input-to-echo deadline is already blown, and
//!   CoDel's sojourn control law on standing queues.
//! - **Retry with a budget** ([`retry`]): capped exponential backoff
//!   with deterministic jitter, and a token-bucket retry budget so an
//!   outage cannot be amplified into a retry storm.
//! - **Circuit breaker** ([`breaker`]): closed → open → half-open on
//!   the simulated X-server connection; composes with `pcr::chaos`.
//! - **Graceful degradation** ([`degrade`]): a coalescing-quality
//!   ladder that sheds echo quality before latency, the §5.2
//!   slack-process knob turned into a control loop.
//!
//! [`world::run_serve`] assembles the pipeline and returns a
//! [`report::ServeReport`] (`threadstudy-serve-v1`) with SLO gates on
//! input-to-echo p50/p99/p999. Everything is deterministic under the
//! spec seed: same seed, byte-identical report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod breaker;
pub mod clients;
pub mod codel;
pub mod degrade;
pub mod metrics;
pub mod report;
pub mod retry;
pub mod traffic;
pub mod world;

pub use admission::TokenBucket;
pub use breaker::{BreakerSpec, BreakerState, CircuitBreaker};
pub use clients::{
    ClientCounters, ClientPopulation, Completion, Outcome, RejectReason, Submission,
};
pub use codel::{CoDel, CodelSpec, CodelVerdict};
pub use degrade::{Ladder, LadderSpec};
pub use metrics::LatencyHistogram;
pub use report::{DegradeSummary, ServeReport, SloTargets};
pub use retry::{RetryBudget, RetryPolicy};
pub use traffic::{ClassParams, LoadShape, ServeScenario, SessionClass, StartTable};
pub use world::{build_sim, install, run_serve, ServeOutcome, ServeSpec};
