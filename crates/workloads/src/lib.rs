//! # workloads — the synthetic Cedar and GVX worlds
//!
//! Rebuilds, per the substitution rule in DESIGN.md, the two systems the
//! paper measured: **Cedar** (research) and **GVX** (GlobalView,
//! product), as parameterized populations of threads on the [`pcr`]
//! runtime whose paradigm mix, blocking structure, priorities, and event
//! rates are calibrated to the paper's §3. Each of the paper's twelve
//! benchmark rows (eight Cedar + four GVX) is a [`spec::Benchmark`]
//! measured by [`runner::run_benchmark_with`], which returns the
//! measurements of Tables 1–3 plus the in-text distributions (execution
//! intervals, fork genealogy, CPU by priority), or an error naming a
//! deadlock or panicked threads.
//!
//! [`inventory::TABLE4_COUNTS`] is the Table 4 fork-site census: the
//! paper's counts, as data. The worlds' own fork sites are
//! `cedar::modeled_sites` and `gvx::modeled_sites`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cedar;
pub mod gvx;
pub mod inventory;
pub mod runner;
pub mod serve;
pub mod spec;
pub mod world;

pub use runner::{
    build_chaos_with, chaos_preset, eternal_thread_count, harvest, probe, run_benchmark,
    run_benchmark_chaos, run_benchmark_policy, run_benchmark_with, BenchResult, DEFAULT_WINDOW,
};
pub use spec::{paper_row, Benchmark, PaperRow, System};
