//! # bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation. The
//! `repro` binary drives it. Wall-clock speed, of the whole and of each
//! layer, is the pinned benchmark's (`benchmark/`) to measure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod exit;
pub mod experiments;
pub mod inversion;
pub mod lint;
pub mod resilience_cli;
pub mod serve_cli;
pub mod slackbench;
pub mod tables;
pub mod tournament;
pub mod xlib;
