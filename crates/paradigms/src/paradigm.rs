//! The ten thread-usage paradigms — the paper's central taxonomy (§4).

use std::fmt;

/// A thread-usage paradigm from the paper's classification of ~650 fork
/// sites in Cedar and GVX (§4, Table 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Paradigm {
    /// §4.1 — fork work not needed for the caller's return value, to
    /// reduce latency seen by the client (the single most common use).
    DeferWork,
    /// §4.2 — a pipeline component: pick up input, transform, emit
    /// downstream. Used mostly for program structuring, not parallelism.
    GeneralPump,
    /// §4.2 — a pump that deliberately *adds* latency, merging or
    /// replacing data to reduce total work when the downstream consumer
    /// has high per-transaction costs.
    SlackProcess,
    /// §4.3 — repeatedly wait for a trigger (often a timeout), run
    /// briefly, sleep again (cursor blinkers, cache sweepers, callbacks).
    Sleeper,
    /// §4.3 — a sleeper that sleeps, runs once, and goes away (guarded
    /// buttons, delayed actions).
    OneShot,
    /// §4.4 — fork so the new thread can acquire locks in a legal order
    /// that the forker, already holding some locks, cannot.
    DeadlockAvoider,
    /// §4.5 — fork a replacement thread to recover from a bad state
    /// (uncaught exception, stack overflow) unrecoverable in place.
    TaskRejuvenation,
    /// §4.6 — a queue plus a thread processing it, serializing work from
    /// many sources (the window-system input model).
    Serializer,
    /// §4.8 — a fork inside a packaged abstraction (`DelayedFork`,
    /// `PeriodicalFork`, `MBQueue`) that captures one of the other
    /// paradigms behind a library interface.
    EncapsulatedFork,
    /// §4.7 — a thread created specifically to use multiple processors.
    ConcurrencyExploiter,
    /// Table 4's "Unknown or other" row.
    Unknown,
}

impl Paradigm {
    /// All paradigms in Table 4's row order.
    pub const ALL: [Paradigm; 11] = [
        Paradigm::DeferWork,
        Paradigm::GeneralPump,
        Paradigm::SlackProcess,
        Paradigm::Sleeper,
        Paradigm::OneShot,
        Paradigm::DeadlockAvoider,
        Paradigm::TaskRejuvenation,
        Paradigm::Serializer,
        Paradigm::EncapsulatedFork,
        Paradigm::ConcurrencyExploiter,
        Paradigm::Unknown,
    ];

    /// The row label used in Table 4.
    pub fn table_label(self) -> &'static str {
        match self {
            Paradigm::DeferWork => "Defer work",
            Paradigm::GeneralPump => "General pumps",
            Paradigm::SlackProcess => "Slack processes",
            Paradigm::Sleeper => "Sleepers",
            Paradigm::OneShot => "Oneshots",
            Paradigm::DeadlockAvoider => "Deadlock avoid",
            Paradigm::TaskRejuvenation => "Task rejuvenate",
            Paradigm::Serializer => "Serializers",
            Paradigm::EncapsulatedFork => "Encapsulated fork",
            Paradigm::ConcurrencyExploiter => "Concurrency exploiters",
            Paradigm::Unknown => "Unknown or other",
        }
    }
}

impl fmt::Display for Paradigm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.table_label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_eleven_rows_like_table_4() {
        assert_eq!(Paradigm::ALL.len(), 11);
        // No duplicates.
        let mut v = Paradigm::ALL.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 11);
    }

    #[test]
    fn labels_are_table_4_rows() {
        assert_eq!(Paradigm::DeferWork.table_label(), "Defer work");
        assert_eq!(Paradigm::Unknown.table_label(), "Unknown or other");
    }

    #[test]
    fn label_roundtrip() {
        for p in Paradigm::ALL {
            assert_eq!(p.to_string(), p.table_label());
            let back = Paradigm::ALL
                .into_iter()
                .find(|q| q.table_label() == p.table_label());
            assert_eq!(back, Some(p), "Table 4 row labels must be distinct");
        }
    }
}
