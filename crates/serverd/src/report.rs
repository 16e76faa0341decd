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
        let mut counters = self.counters;
        let counters = Json::obj(counters.fields_mut().map(|(k, v)| (k, Json::from(*v))));
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
    /// a zero every run beats. Every other field defaults when absent,
    /// but a field of the wrong type is an error too.
    pub fn from_json(j: &Json) -> Result<ServeReport, String> {
        let schema = j.str_at("schema")?;
        if schema != "threadstudy-serve-v1" {
            return Err(format!("unsupported serve schema {schema:?}"));
        }
        let pinned = SloTargets::default();
        let seed = match j.opt_str_at("seed")? {
            Some(hex) => u64::from_str_radix(hex, 16)
                .map_err(|e| format!("seed: {hex:?} is not hex: {e}"))?,
            None => 0,
        };
        // Read once as a whole: sixteen lookups from the top cost more
        // than the rest of the report.
        let counters = j.opt_obj_at("counters", |c| {
            let mut counters = ClientCounters::default();
            for (name, slot) in counters.fields_mut() {
                *slot = c.opt_u64_at(name)?.unwrap_or_default();
            }
            Ok(counters)
        })?;
        Ok(ServeReport {
            sessions: j.opt_u32_at("sessions")?.unwrap_or_default(),
            seed,
            window_us: j.opt_u64_at("window_us")?.unwrap_or_default(),
            policy: j.opt_str_at("policy")?.unwrap_or_default().to_string(),
            scenario: j.opt_str_at("scenario")?.unwrap_or_default().to_string(),
            end_us: j.opt_u64_at("end_us")?.unwrap_or_default(),
            p50_us: j.u64_at("latency_us.p50")?,
            p99_us: j.u64_at("latency_us.p99")?,
            p999_us: j.u64_at("latency_us.p999")?,
            max_us: j.opt_u64_at("latency_us.max")?.unwrap_or_default(),
            mean_us: j.opt_u64_at("latency_us.mean")?.unwrap_or_default(),
            histogram: j
                .opt_arr_at("histogram", |row| Ok((row.u64_at("0")?, row.u64_at("1")?)))?
                .unwrap_or_default(),
            counters: counters.unwrap_or_default(),
            goodput_per_sec: j.f64_at("goodput_per_sec")?,
            amplification: j.f64_at("amplification")?,
            budget_suppressed: j.opt_u64_at("budget_suppressed")?.unwrap_or_default(),
            codel_drops: j.opt_u64_at("codel_drops")?.unwrap_or_default(),
            breaker_trips: j.opt_u64_at("breaker_trips")?.unwrap_or_default(),
            breaker_fast_failed_batches: j
                .opt_u64_at("breaker_fast_failed_batches")?
                .unwrap_or_default(),
            outage_failed_batches: j.opt_u64_at("outage_failed_batches")?.unwrap_or_default(),
            batches: j.opt_u64_at("batches")?.unwrap_or_default(),
            degrade: DegradeSummary {
                degrade_steps: j.opt_u64_at("degrade.steps")?.unwrap_or_default(),
                restore_steps: j.opt_u64_at("degrade.restores")?.unwrap_or_default(),
                max_level: j.opt_u64_at("degrade.max_level")?.unwrap_or_default(),
                time_at_level_us: j
                    .opt_arr_at("degrade.time_at_level_us", |t| t.u64_at(""))?
                    .unwrap_or_default(),
            },
            slo: SloTargets {
                p50: j
                    .opt_u64_at("slo_us.p50")?
                    .map_or(pinned.p50, SimDuration::from_micros),
                p99: j
                    .opt_u64_at("slo_us.p99")?
                    .map_or(pinned.p99, SimDuration::from_micros),
                p999: j
                    .opt_u64_at("slo_us.p999")?
                    .map_or(pinned.p999, SimDuration::from_micros),
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
    fn out_of_range_sessions_and_non_hex_seeds_are_errors_not_wrapped() {
        let text = sample().to_json().to_string();
        for (from, to, field) in [
            ("\"sessions\":100", "\"sessions\":4294967296", "sessions"),
            ("\"seed\":\"A5\"", "\"seed\":\"A5G\"", "seed"),
        ] {
            let bad = Json::parse(&text.replacen(from, to, 1)).unwrap();
            let err = ServeReport::from_json(&bad).unwrap_err();
            assert!(err.starts_with(field), "{err}");
        }
    }

    #[test]
    fn schema_mismatch_rejected() {
        let j = Json::obj([("schema", Json::from("threadstudy-bench-v2"))]);
        assert!(ServeReport::from_json(&j).is_err());
    }
}
