//! Per-benchmark rate summaries — the rows of the paper's Tables 1–3.

use pcr::{SimDuration, SimStats};

use crate::json::Json;

/// The measurements the paper reports per benchmark:
/// Table 1 (forks/sec, switches/sec), Table 2 (waits/sec, % timeouts,
/// ML-enters/sec, contention), Table 3 (# distinct CVs and MLs).
#[derive(Clone, Debug)]
pub struct BenchmarkRates {
    /// Benchmark label, e.g. "Keyboard input".
    pub name: String,
    /// Virtual duration the rates were measured over.
    pub elapsed_secs: f64,
    /// Table 1: thread forks per second.
    pub forks_per_sec: f64,
    /// Table 1: thread switches per second.
    pub switches_per_sec: f64,
    /// Table 2: CV waits per second.
    pub waits_per_sec: f64,
    /// Table 2: percentage of waits that timed out.
    pub timeout_pct: f64,
    /// Table 2: monitor entries per second.
    pub ml_enters_per_sec: f64,
    /// §3 text: percentage of monitor entries that were contended.
    pub contention_pct: f64,
    /// Table 3: number of distinct condition variables waited on.
    pub distinct_cvs: usize,
    /// Table 3: number of distinct monitor locks entered.
    pub distinct_mls: usize,
    /// Paper §3: maximum threads concurrently existing.
    pub max_live_threads: usize,
}

impl BenchmarkRates {
    /// The rates as a JSON object (field order matches declaration).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.clone())),
            ("elapsed_secs", Json::from(self.elapsed_secs)),
            ("forks_per_sec", Json::from(self.forks_per_sec)),
            ("switches_per_sec", Json::from(self.switches_per_sec)),
            ("waits_per_sec", Json::from(self.waits_per_sec)),
            ("timeout_pct", Json::from(self.timeout_pct)),
            ("ml_enters_per_sec", Json::from(self.ml_enters_per_sec)),
            ("contention_pct", Json::from(self.contention_pct)),
            ("distinct_cvs", Json::from(self.distinct_cvs)),
            ("distinct_mls", Json::from(self.distinct_mls)),
            ("max_live_threads", Json::from(self.max_live_threads)),
        ])
    }

    /// Summarizes a run's statistics over `elapsed` virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    pub fn from_stats(name: &str, stats: &SimStats, elapsed: SimDuration) -> Self {
        let secs = elapsed.as_secs_f64();
        assert!(secs > 0.0, "rates need a positive measurement window");
        BenchmarkRates {
            name: name.to_string(),
            elapsed_secs: secs,
            forks_per_sec: stats.forks as f64 / secs,
            switches_per_sec: stats.switches as f64 / secs,
            waits_per_sec: stats.cv_waits as f64 / secs,
            timeout_pct: stats.timeout_fraction() * 100.0,
            ml_enters_per_sec: stats.ml_enters as f64 / secs,
            contention_pct: stats.contention_fraction() * 100.0,
            distinct_cvs: stats.distinct_conditions,
            distinct_mls: stats.distinct_monitors,
            max_live_threads: stats.max_live_threads,
        }
    }

    /// Difference of two cumulative stats snapshots, for measuring a
    /// window that excludes warm-up: `end - start` over `elapsed`.
    pub fn from_window(name: &str, start: &SimStats, end: &SimStats, elapsed: SimDuration) -> Self {
        let secs = elapsed.as_secs_f64();
        assert!(secs > 0.0, "rates need a positive measurement window");
        let d = |a: u64, b: u64| (b - a) as f64 / secs;
        let waits = end.cv_waits - start.cv_waits;
        let touts = end.cv_timeouts - start.cv_timeouts;
        let enters = end.ml_enters - start.ml_enters;
        let cont = end.ml_contended - start.ml_contended;
        BenchmarkRates {
            name: name.to_string(),
            elapsed_secs: secs,
            forks_per_sec: d(start.forks, end.forks),
            switches_per_sec: d(start.switches, end.switches),
            waits_per_sec: d(start.cv_waits, end.cv_waits),
            timeout_pct: if waits == 0 {
                0.0
            } else {
                100.0 * touts as f64 / waits as f64
            },
            ml_enters_per_sec: d(start.ml_enters, end.ml_enters),
            contention_pct: if enters == 0 {
                0.0
            } else {
                100.0 * cont as f64 / enters as f64
            },
            distinct_cvs: end.distinct_conditions,
            distinct_mls: end.distinct_monitors,
            max_live_threads: end.max_live_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::secs;

    fn stats(forks: u64, switches: u64, waits: u64, touts: u64, enters: u64) -> SimStats {
        SimStats {
            forks,
            switches,
            cv_waits: waits,
            cv_timeouts: touts,
            ml_enters: enters,
            ..Default::default()
        }
    }

    #[test]
    fn rates_divide_by_elapsed() {
        let s = stats(10, 1320, 1150, 820, 4140);
        let r = BenchmarkRates::from_stats("Idle", &s, secs(10));
        assert!((r.forks_per_sec - 1.0).abs() < 1e-9);
        assert!((r.switches_per_sec - 132.0).abs() < 1e-9);
        assert!((r.waits_per_sec - 115.0).abs() < 1e-9);
        assert!((r.timeout_pct - 71.3).abs() < 0.1);
        assert!((r.ml_enters_per_sec - 414.0).abs() < 1e-9);
    }

    #[test]
    fn window_subtracts_warmup() {
        let a = stats(5, 100, 50, 25, 200);
        let b = stats(15, 1420, 1200, 850, 4340);
        let r = BenchmarkRates::from_window("X", &a, &b, secs(10));
        assert!((r.forks_per_sec - 1.0).abs() < 1e-9);
        assert!((r.switches_per_sec - 132.0).abs() < 1e-9);
        assert!((r.timeout_pct - (825.0 / 1150.0 * 100.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive measurement window")]
    fn zero_window_panics() {
        let s = SimStats::default();
        let _ = BenchmarkRates::from_stats("bad", &s, SimDuration::ZERO);
    }
}
