//! # threadstudy-core — the paradigm taxonomy
//!
//! The primary intellectual contribution of *Using Threads in Interactive
//! Systems: A Case Study* (SOSP 1993) is a classification of how ~650
//! thread-creation sites across Cedar and GVX actually use threads: ten
//! paradigms, from the ubiquitous *defer work* to the subtle *slack
//! process* and the counter-intuitive *task rejuvenation*.
//!
//! This crate holds that taxonomy ([`Paradigm`]) and the census types
//! ([`Inventory`], [`ForkSite`], [`System`]) used to regenerate Table 4
//! and to cross-check the synthetic world models against the census.
//! The paradigm *implementations* live in the `paradigms` crate, once,
//! for the simulator and for the `mesa` crate's real threads alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inventory;
mod paradigm;

pub use inventory::{ForkSite, Inventory, System};
pub use paradigm::Paradigm;
