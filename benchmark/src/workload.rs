//! What the four workloads have in common: a pass, its digest, and the
//! sizes that fix how much work a pass is.

use std::collections::BTreeMap;

use crate::spans::SpanLog;

/// The seed `expected.json` pins, and `repro bench`'s default: the one
/// behind the 613,443-event `BENCH_threadstudy.json`.
pub const DEFAULT_SEED: u64 = 0xCEDA_2026;

/// How much work one pass of each workload is. The full sizes give a
/// pass of two to three seconds on a 2-core box, so that a run of
/// `run_seconds` holds several passes of every workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sizes {
    /// Virtual measurement window of each matrix cell, seconds.
    pub matrix_window_s: u64,
    /// Sessions of the reference serve cell. 6,000 is the smallest
    /// fleet that still arrives at the reference 300 sessions/s.
    pub serve_sessions: u32,
    /// Trials of one fuzz sweep: two layers of the 16-cell grid, the
    /// clean `preset` rung and the guaranteed-failure rung above it.
    pub fuzz_trials: u32,
    /// Virtual window of each fuzz trial, seconds (`repro fuzz` uses 6).
    pub fuzz_window_s: u64,
    /// Virtual window of each recorded offline stream, seconds.
    pub offline_window_s: u64,
    /// Divisor applied to every microworld's iteration count.
    pub micro_divisor: u64,
    /// Times set-up is done: once on the default seed for the goldens,
    /// then on `--seed`. `setup_s` is the median.
    pub setup_rounds: usize,
    /// Timed passes of each kind a run makes at least, however short
    /// `--seconds` is.
    pub min_passes: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        matrix_window_s: 8,
        serve_sessions: 6_000,
        fuzz_trials: 32,
        fuzz_window_s: 6,
        offline_window_s: 20,
        micro_divisor: 1,
        setup_rounds: 3,
        min_passes: 3,
    };

    /// About one twentieth of [`Sizes::FULL`], for `--smoke`. The fuzz
    /// sweep keeps most of the grid's first layer, in short windows: its
    /// thirteenth and fourteenth cells (the multiprocessor mesh and the
    /// weak-memory race) are the cheapest that fail, and the stored-case
    /// metrics need a failure.
    pub const SMOKE: Sizes = Sizes {
        matrix_window_s: 1,
        serve_sessions: 300,
        fuzz_trials: 14,
        fuzz_window_s: 1,
        offline_window_s: 1,
        micro_divisor: 50,
        setup_rounds: 2,
        min_passes: 1,
    };
}

/// The deterministic outputs of one pass, by name. Two passes over the
/// same inputs must produce equal digests; the default seed's digest is
/// pinned in `expected.json`.
pub type Digest = BTreeMap<String, String>;

/// How often a traced pass exercised each layer whose unit cost a
/// microworld measures. The ledger multiplies the two and divides by
/// `wall_s`.
#[derive(Clone, Copy, Debug, Default)]
pub struct LedgerInputs {
    pub wall_s: f64,
    /// Baton round trips between the scheduler and a simulated thread.
    pub handoffs: u64,
    /// Dispatch decisions of the scheduling policy.
    pub switches: u64,
    /// Timers armed.
    pub timer_ops: u64,
    /// Events delivered to a `Collector` sink.
    pub sink_events: u64,
    /// Worlds built and torn down.
    pub worlds: u64,
    /// Wait-for-graph snapshots taken.
    pub snapshots: u64,
}

/// What one pass did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Work units completed, in the workload's own unit.
    pub units: u64,
    /// Wall seconds of each segment of the pass (a cell, a trial, a
    /// stage), in an order that is the same on every pass.
    pub segments: Vec<f64>,
    /// Operations attempted and operations that failed.
    pub attempted: u64,
    pub failed: u64,
    pub digest: Digest,
    /// Per-layer observations a traced pass makes along the way, by
    /// metric name.
    pub layer: BTreeMap<String, f64>,
    /// Filled by a traced pass of a workload that runs simulated threads.
    pub ledger: Option<LedgerInputs>,
    /// What each failed operation was, for the log.
    pub complaints: Vec<String>,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.segments.iter().sum()
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.complaints.push(what);
    }

    pub fn put(&mut self, metric: &str, value: f64) {
        self.layer.insert(metric.to_string(), value);
    }
}

/// One of the four workloads, with its inputs already made from a seed.
pub trait Workload {
    /// The unit of [`Pass::units`], for the log.
    fn unit(&self) -> &'static str;

    /// Runs the workload once. Spans go to `log`; when it is traced the
    /// pass also fills [`Pass::layer`].
    fn pass(&mut self, log: &mut SpanLog) -> Pass;
}

/// 64-bit FNV-1a, to pin a byte string in a digest.
pub fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv1a(b""), "cbf29ce484222325");
        assert_eq!(fnv1a(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a(b"foobar"), "85944171f73967e8");
    }
}
