//! # resilience — fuzz, shrink, recover
//!
//! The robustness harness over the [`pcr`] simulator and the
//! [`workloads`] worlds, motivated by the pathologies of §5–§6 of the
//! paper (fork outages, unresponsive components, priority-inversion
//! wedges):
//!
//! * [`fuzz`] sweeps seeds and chaos-intensity grids over the full
//!   benchmark matrix — plus the multiprocessor transfer mesh, the
//!   §5.5 weak-memory race, and the overload-resilient serve world's
//!   burst and outage cells ([`TrialWorld`], each built by
//!   [`TrialSpec::build`]) — classifies every failing run, as the one
//!   failure predicate [`judge`] sees it, by a seed-independent
//!   [`signature`], and stores each unique
//!   failure as a replayable [`StoredCase`] carrying the exact
//!   [`pcr::FaultSchedule`] that produced it.
//! * [`guided_fuzz`] spends the same budget smarter: a corpus of cases
//!   keyed by failure signature, mutated (stall splices, parameter
//!   perturbations, PCT priority-change injection, reseeds) with energy
//!   biased toward the entries whose mutations keep finding new
//!   signatures. Its yardstick is distinct signatures per CPU-minute.
//! * [`shrink`] delta-debugs a failing schedule down to a locally
//!   minimal one that still reproduces the same failure signature —
//!   dropping injection decisions, halving stall durations — so the
//!   repro a human reads is the smallest one the oracle accepts.
//! * [`supervise`] runs a world in slices under a wait-for-graph watch
//!   and pulls the paper's recovery levers when it wedges: failing
//!   pending forks (§5.4), rejuvenating stalled components (§5.2), and
//!   as a last resort restarting the attempt with exponential backoff.
//!   [`supervise_benchmark`] scores the result as a *degradation*
//!   fraction against a clean run of the same cell.
//!
//! Everything here is deterministic per `(world, chaos, seed)`: a fuzz
//! finding replays byte-for-byte, a shrunk schedule carries a
//! ready-to-paste repro command, and the supervisor's action log is
//! stable across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod case;
mod confirm;
mod fuzz;
mod guided;
mod judge;
mod observe;
mod shrink;
mod signature;
mod supervisor;

pub use case::{benchmark_from_name, system_from_name, StoredCase};
pub use confirm::{case_evidence, corpus_evidence, Evidence};
pub use fuzz::{
    default_cells, fuzz, fuzz_with, ladder, BatchRunner, FoundCase, FuzzConfig, FuzzOutcome,
    Intensity,
};
pub use guided::{guided_fuzz, signatures_per_cpu_minute, GuidedOutcome, MutationDiscovery};
pub use judge::{judge, Verdict};
pub use observe::{observe, replay, replay_schedule, Observation, TrialSpec, TrialWorld};
pub use shrink::{shrink, ShrinkConfig, ShrinkReport};
pub use signature::{normalize_name, signature, Failure, FailureClass};
pub use supervisor::{
    supervise, supervise_benchmark, unsupervised_wedges, RecoveryAction, RecoveryKind,
    SupervisedBench, Supervision, SupervisorConfig,
};
