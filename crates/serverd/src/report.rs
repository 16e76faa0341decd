//! The `threadstudy-serve-v1` report: SLO gates, JSON, baseline
//! regression checks.

use pcr::{millis, SimDuration};
use trace::Json;

use crate::clients::ClientCounters;
use crate::metrics::LatencyHistogram;

/// Input-to-echo latency service-level objectives.
#[derive(Clone, Copy, Debug)]
pub struct SloTargets {
    /// Median gate.
    pub p50: SimDuration,
    /// Tail gate — the one CI enforces hardest.
    pub p99: SimDuration,
    /// Extreme-tail gate.
    pub p999: SimDuration,
}

impl Default for SloTargets {
    fn default() -> Self {
        // Pinned for the reference cell (calibrated; see docs/SERVING.md).
        SloTargets {
            p50: millis(10),
            p99: millis(50),
            p999: millis(200),
        }
    }
}

/// Degradation-ladder summary.
#[derive(Clone, Debug, Default)]
pub struct DegradeSummary {
    /// Quality-shedding steps taken.
    pub degrade_steps: u64,
    /// Quality-restoring steps taken.
    pub restore_steps: u64,
    /// Deepest quality level reached (0 = never degraded).
    pub max_level: u64,
    /// Virtual µs spent at each quality level.
    pub time_at_level_us: Vec<u64>,
}

/// Everything `repro serve` reports, prints, and gates on.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Sessions simulated.
    pub sessions: u32,
    /// Spec seed.
    pub seed: u64,
    /// Arrival window, µs.
    pub window_us: u64,
    /// Scheduling policy label.
    pub policy: String,
    /// Chaos/scenario label ("none", "outage", ...).
    pub scenario: String,
    /// Virtual end-of-run time, µs.
    pub end_us: u64,
    /// Latency percentiles of painted requests, µs.
    pub p50_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// 99.9th percentile, µs.
    pub p999_us: u64,
    /// Worst observed, µs.
    pub max_us: u64,
    /// Mean, µs.
    pub mean_us: u64,
    /// Histogram rows `(bucket_lo_us, count)`.
    pub histogram: Vec<(u64, u64)>,
    /// Client-fleet counters.
    pub counters: ClientCounters,
    /// Goodput: painted requests per virtual second of the window.
    pub goodput_per_sec: f64,
    /// Amplification factor: submissions / original requests.
    pub amplification: f64,
    /// Retry-budget suppressions.
    pub budget_suppressed: u64,
    /// CoDel sheds (server side).
    pub codel_drops: u64,
    /// Breaker trips (Closed→Open).
    pub breaker_trips: u64,
    /// Batches fast-failed by the breaker.
    pub breaker_fast_failed_batches: u64,
    /// Batches failed by the outage itself.
    pub outage_failed_batches: u64,
    /// Batches painted.
    pub batches: u64,
    /// Ladder summary.
    pub degrade: DegradeSummary,
    /// The gates this run was measured against.
    pub slo: SloTargets,
}

impl ServeReport {
    /// Builds the latency fields from a histogram.
    pub fn fill_latency(&mut self, h: &LatencyHistogram) {
        self.p50_us = h.quantile_us(0.50).unwrap_or(0);
        self.p99_us = h.quantile_us(0.99).unwrap_or(0);
        self.p999_us = h.quantile_us(0.999).unwrap_or(0);
        self.max_us = h.max_us();
        self.mean_us = h.mean_us();
        self.histogram = h.rows();
    }

    /// SLO breaches, empty when all gates hold. A run that painted
    /// nothing breaches by definition.
    pub fn slo_breaches(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.counters.painted == 0 {
            out.push("no requests painted at all".to_string());
            return out;
        }
        for (name, got, gate) in [
            ("p50", self.p50_us, self.slo.p50),
            ("p99", self.p99_us, self.slo.p99),
            ("p999", self.p999_us, self.slo.p999),
        ] {
            if got > gate.as_micros() {
                out.push(format!(
                    "{name} {}µs exceeds the {}µs SLO",
                    got,
                    gate.as_micros()
                ));
            }
        }
        out
    }

    /// Regressions vs a stored baseline, empty when clean. Latency may
    /// drift 25% (plus 2ms absolute grace), goodput may lose 10%,
    /// amplification may grow 10% + 0.05.
    pub fn compare_baseline(&self, base: &ServeReport) -> Vec<String> {
        let mut out = Vec::new();
        for (name, got, was) in [
            ("p50", self.p50_us, base.p50_us),
            ("p99", self.p99_us, base.p99_us),
            ("p999", self.p999_us, base.p999_us),
        ] {
            let allowed = (was as f64 * 1.25) as u64 + 2_000;
            if got > allowed {
                out.push(format!(
                    "{name} regressed: {got}µs vs baseline {was}µs (allowed {allowed}µs)"
                ));
            }
        }
        if self.goodput_per_sec < base.goodput_per_sec * 0.9 {
            out.push(format!(
                "goodput regressed: {:.1}/s vs baseline {:.1}/s",
                self.goodput_per_sec, base.goodput_per_sec
            ));
        }
        if self.amplification > base.amplification * 1.1 + 0.05 {
            out.push(format!(
                "amplification regressed: {:.3} vs baseline {:.3}",
                self.amplification, base.amplification
            ));
        }
        out
    }

    /// Serializes as `threadstudy-serve-v1`. Deliberately excludes wall
    /// time: the file must be byte-identical for identical seeds.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::from(v)))
                .collect(),
        );
        Json::obj([
            ("schema", Json::from("threadstudy-serve-v1")),
            ("sessions", Json::from(self.sessions)),
            ("seed", Json::Str(format!("{:X}", self.seed))),
            ("window_us", Json::from(self.window_us)),
            ("policy", Json::from(self.policy.as_str())),
            ("scenario", Json::from(self.scenario.as_str())),
            ("end_us", Json::from(self.end_us)),
            (
                "latency_us",
                Json::obj([
                    ("p50", Json::from(self.p50_us)),
                    ("p99", Json::from(self.p99_us)),
                    ("p999", Json::from(self.p999_us)),
                    ("max", Json::from(self.max_us)),
                    ("mean", Json::from(self.mean_us)),
                ]),
            ),
            (
                "slo_us",
                Json::obj([
                    ("p50", Json::from(self.slo.p50.as_micros())),
                    ("p99", Json::from(self.slo.p99.as_micros())),
                    ("p999", Json::from(self.slo.p999.as_micros())),
                ]),
            ),
            (
                "histogram",
                Json::arr(
                    self.histogram
                        .iter()
                        .map(|&(lo, c)| Json::arr([Json::from(lo), Json::from(c)])),
                ),
            ),
            ("counters", counters),
            ("goodput_per_sec", Json::from(self.goodput_per_sec)),
            ("amplification", Json::from(self.amplification)),
            ("budget_suppressed", Json::from(self.budget_suppressed)),
            ("codel_drops", Json::from(self.codel_drops)),
            ("breaker_trips", Json::from(self.breaker_trips)),
            (
                "breaker_fast_failed_batches",
                Json::from(self.breaker_fast_failed_batches),
            ),
            (
                "outage_failed_batches",
                Json::from(self.outage_failed_batches),
            ),
            ("batches", Json::from(self.batches)),
            (
                "degrade",
                Json::obj([
                    ("steps", Json::from(self.degrade.degrade_steps)),
                    ("restores", Json::from(self.degrade.restore_steps)),
                    ("max_level", Json::from(self.degrade.max_level)),
                    (
                        "time_at_level_us",
                        Json::arr(self.degrade.time_at_level_us.iter().map(|&t| Json::from(t))),
                    ),
                ]),
            ),
        ])
    }

    /// Parses a stored `threadstudy-serve-v1` file back (for
    /// `--baseline`). The fields [`Self::compare_baseline`] gates on —
    /// `latency_us.{p50,p99,p999}`, `goodput_per_sec`, `amplification` —
    /// must be present and numeric: a damaged baseline is an error, not
    /// a zero every run beats.
    pub fn from_json(j: &Json) -> Result<ServeReport, String> {
        let schema = j.get("schema").and_then(|s| s.as_str()).unwrap_or("");
        if schema != "threadstudy-serve-v1" {
            return Err(format!("unsupported serve schema {schema:?}"));
        }
        let u = |key: &str| -> u64 { j.get(key).and_then(|v| v.as_u64()).unwrap_or(0) };
        let lat = j.get("latency_us");
        let gate_u = |key: &str| -> Result<u64, String> {
            lat.and_then(|l| l.get(key))
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("latency_us.{key} is missing or not a number"))
        };
        let gate_f = |key: &str| -> Result<f64, String> {
            j.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{key} is missing or not a number"))
        };
        let lu = |key: &str| -> u64 {
            lat.and_then(|l| l.get(key))
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        };
        let slo = j.get("slo_us");
        let su = |key: &str, default: SimDuration| -> SimDuration {
            slo.and_then(|l| l.get(key))
                .and_then(|v| v.as_u64())
                .map(SimDuration::from_micros)
                .unwrap_or(default)
        };
        let mut counters = ClientCounters::default();
        if let Some(Json::Obj(fields)) = j.get("counters") {
            for (k, v) in fields {
                let val = v.as_u64().unwrap_or(0);
                match k.as_str() {
                    "offered" => counters.offered = val,
                    "attempts" => counters.attempts = val,
                    "painted" => counters.painted = val,
                    "timed_out" => counters.timed_out = val,
                    "shed_deadline" => counters.shed_deadline = val,
                    "failed" => counters.failed = val,
                    "late_paint" => counters.late_paint = val,
                    "rejected_admission" => counters.rejected_admission = val,
                    "rejected_backpressure" => counters.rejected_backpressure = val,
                    "shed_codel" => counters.shed_codel = val,
                    "fast_fail" => counters.fast_fail = val,
                    "xfail" => counters.xfail = val,
                    "retries" => counters.retries = val,
                    "retries_capped" => counters.retries_capped = val,
                    "retries_past_deadline" => counters.retries_past_deadline = val,
                    "retries_budget_dry" => counters.retries_budget_dry = val,
                    _ => {}
                }
            }
        }
        let degrade = j.get("degrade");
        let du = |key: &str| -> u64 {
            degrade
                .and_then(|d| d.get(key))
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        };
        Ok(ServeReport {
            sessions: u("sessions") as u32,
            seed: j
                .get("seed")
                .and_then(|s| s.as_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .unwrap_or(0),
            window_us: u("window_us"),
            policy: j
                .get("policy")
                .and_then(|s| s.as_str())
                .unwrap_or("")
                .to_string(),
            scenario: j
                .get("scenario")
                .and_then(|s| s.as_str())
                .unwrap_or("")
                .to_string(),
            end_us: u("end_us"),
            p50_us: gate_u("p50")?,
            p99_us: gate_u("p99")?,
            p999_us: gate_u("p999")?,
            max_us: lu("max"),
            mean_us: lu("mean"),
            histogram: j
                .get("histogram")
                .and_then(|h| h.as_array())
                .map(|rows| {
                    rows.iter()
                        .filter_map(|r| {
                            let pair = r.as_array()?;
                            Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
                        })
                        .collect()
                })
                .unwrap_or_default(),
            counters,
            goodput_per_sec: gate_f("goodput_per_sec")?,
            amplification: gate_f("amplification")?,
            budget_suppressed: u("budget_suppressed"),
            codel_drops: u("codel_drops"),
            breaker_trips: u("breaker_trips"),
            breaker_fast_failed_batches: u("breaker_fast_failed_batches"),
            outage_failed_batches: u("outage_failed_batches"),
            batches: u("batches"),
            degrade: DegradeSummary {
                degrade_steps: du("steps"),
                restore_steps: du("restores"),
                max_level: du("max_level"),
                time_at_level_us: degrade
                    .and_then(|d| d.get("time_at_level_us"))
                    .and_then(|a| a.as_array())
                    .map(|xs| xs.iter().filter_map(|x| x.as_u64()).collect())
                    .unwrap_or_default(),
            },
            slo: SloTargets {
                p50: su("p50", SloTargets::default().p50),
                p99: su("p99", SloTargets::default().p99),
                p999: su("p999", SloTargets::default().p999),
            },
        })
    }

    /// Human-readable summary table.
    pub fn text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let c = &self.counters;
        let _ = writeln!(
            out,
            "serve: {} sessions, seed {:X}, window {:.1}s, policy {}, scenario {}",
            self.sessions,
            self.seed,
            self.window_us as f64 / 1e6,
            self.policy,
            self.scenario
        );
        let _ = writeln!(
            out,
            "  input-to-echo  p50 {:>7}µs   p99 {:>7}µs   p999 {:>7}µs   max {:>7}µs",
            self.p50_us, self.p99_us, self.p999_us, self.max_us
        );
        let _ = writeln!(
            out,
            "  slo gates      p50 {:>7}µs   p99 {:>7}µs   p999 {:>7}µs",
            self.slo.p50.as_micros(),
            self.slo.p99.as_micros(),
            self.slo.p999.as_micros()
        );
        let _ = writeln!(
            out,
            "  offered {}  painted {} ({:.2}%)  goodput {:.1}/s  amplification {:.3}",
            c.offered,
            c.painted,
            100.0 * c.painted as f64 / c.offered.max(1) as f64,
            self.goodput_per_sec,
            self.amplification
        );
        let _ = writeln!(
            out,
            "  shed: admission {}  backpressure {}  codel {}  deadline {}  timeout {}  failed {}",
            c.rejected_admission,
            c.rejected_backpressure,
            c.shed_codel,
            c.shed_deadline,
            c.timed_out,
            c.failed
        );
        let _ = writeln!(
            out,
            "  retry: {} scheduled, {} budget-dry, {} capped, {} past-deadline",
            c.retries, c.retries_budget_dry, c.retries_capped, c.retries_past_deadline
        );
        let _ = writeln!(
            out,
            "  breaker: {} trips, {} fast-failed batches, {} outage-failed batches",
            self.breaker_trips, self.breaker_fast_failed_batches, self.outage_failed_batches
        );
        let _ = writeln!(
            out,
            "  degrade: {} steps (max level {}), {} restores; batches {}",
            self.degrade.degrade_steps,
            self.degrade.max_level,
            self.degrade.restore_steps,
            self.batches
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeReport {
        let mut h = LatencyHistogram::new();
        for i in 1..=100u64 {
            h.record(pcr::micros(i * 100));
        }
        let mut r = ServeReport {
            sessions: 100,
            seed: 0xA5,
            window_us: 2_000_000,
            policy: "round-robin".into(),
            scenario: "none".into(),
            end_us: 2_500_000,
            p50_us: 0,
            p99_us: 0,
            p999_us: 0,
            max_us: 0,
            mean_us: 0,
            histogram: Vec::new(),
            counters: ClientCounters {
                offered: 400,
                attempts: 410,
                painted: 390,
                timed_out: 4,
                shed_deadline: 2,
                failed: 4,
                ..ClientCounters::default()
            },
            goodput_per_sec: 195.0,
            amplification: 410.0 / 400.0,
            budget_suppressed: 3,
            codel_drops: 2,
            breaker_trips: 1,
            breaker_fast_failed_batches: 5,
            outage_failed_batches: 6,
            batches: 97,
            degrade: DegradeSummary {
                degrade_steps: 2,
                restore_steps: 1,
                max_level: 2,
                time_at_level_us: vec![1_000_000, 800_000, 700_000],
            },
            slo: SloTargets::default(),
        };
        r.fill_latency(&h);
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let j = r.to_json();
        let parsed = ServeReport::from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(parsed.to_json().to_string(), j.to_string());
        assert_eq!(parsed.sessions, 100);
        assert_eq!(parsed.seed, 0xA5);
        assert_eq!(parsed.counters.offered, 400);
        assert_eq!(parsed.degrade.max_level, 2);
    }

    #[test]
    fn slo_gates_fire() {
        let mut r = sample();
        assert!(r.slo_breaches().is_empty(), "{:?}", r.slo_breaches());
        r.p99_us = r.slo.p99.as_micros() + 1;
        assert_eq!(r.slo_breaches().len(), 1);
        r.counters.painted = 0;
        assert_eq!(r.slo_breaches(), vec!["no requests painted at all"]);
    }

    #[test]
    fn baseline_comparison_catches_drift() {
        let base = sample();
        let mut r = sample();
        assert!(r.compare_baseline(&base).is_empty());
        r.p99_us = base.p99_us * 2 + 10_000;
        r.goodput_per_sec = base.goodput_per_sec * 0.5;
        r.amplification = base.amplification * 2.0;
        assert_eq!(r.compare_baseline(&base).len(), 3);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let j = Json::obj([("schema", Json::from("threadstudy-bench-v2"))]);
        assert!(ServeReport::from_json(&j).is_err());
    }
}
