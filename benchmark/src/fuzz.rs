//! `fuzz`: the chaos-schedule grid sweep of `repro fuzz`, with our own
//! serial runner so that every trial is timed.

use std::collections::BTreeSet;
use std::time::Instant;

use pcr::secs;
use resilience::{fuzz_with, observe, replay, FuzzConfig, StoredCase};
use trace::Json;

use crate::host;
use crate::spans::SpanLog;
use crate::stats::{median, percentile};
use crate::workload::{LedgerInputs, Pass, Sizes, Workload};

pub struct Fuzz {
    cfg: FuzzConfig,
    /// Signatures somebody has triaged (`expected.json`, a copy of
    /// `ci/fuzz-expected-signatures.txt`). Any other is a failure.
    known: BTreeSet<String>,
}

impl Fuzz {
    pub fn new(sizes: &Sizes, seed: u64, known: BTreeSet<String>) -> Fuzz {
        Fuzz {
            cfg: FuzzConfig {
                budget: sizes.fuzz_trials,
                base_seed: seed,
                window: secs(sizes.fuzz_window_s),
                ..FuzzConfig::default()
            },
            known,
        }
    }
}

/// Serializes a stored case and reads it back, as `repro fuzz --out`
/// then `repro replay` do; returns whether the copy replays the same.
fn case_round_trips(case: &StoredCase) -> bool {
    let text = case.to_json().to_string();
    Json::parse(&text)
        .and_then(|j| StoredCase::from_json(&j))
        .is_ok_and(|back| back.to_json().to_string() == text)
}

impl Workload for Fuzz {
    /// A quarter second of virtual time observed: one turn of
    /// `observe`'s run-then-check loop. Trials are the wrong unit to
    /// divide by: whether a trial fails at once or runs its whole window
    /// depends on the seed, and trials per second with it, by 25%.
    fn unit(&self) -> &'static str {
        "slices"
    }

    fn pass(&mut self, log: &mut SpanLog) -> Pass {
        let mut pass = Pass::default();
        let mut slices = 0;
        let slice_us = self.cfg.slice.as_micros().max(1);
        let before = host::Usage::now();
        let sweep = log.open("fuzz", self.cfg.base_seed);
        let outcome = fuzz_with(&self.cfg, |_| {}, 1, &mut |batch| {
            batch
                .iter()
                .map(|(spec, chaos)| {
                    let id = pass.segments.len() as u64;
                    let trial = log.open("trial", id);
                    let (obs, _) = log.time("observe", id, || observe(spec, chaos.clone()));
                    pass.segments.push(log.close(trial));
                    slices += obs.elapsed.as_micros().div_ceil(slice_us);
                    obs
                })
                .collect()
        });
        let _ = log.close(sweep);
        let usage = host::Usage::now();

        pass.units = slices;
        pass.attempted = u64::from(outcome.trials);
        pass.digest
            .insert("trials".to_string(), outcome.trials.to_string());
        pass.digest
            .insert("failures".to_string(), outcome.failures.to_string());
        for found in &outcome.cases {
            let signature = &found.case.signature;
            pass.digest
                .insert(format!("sig {signature}"), found.count.to_string());
            if !self.known.contains(signature) {
                pass.fail(format!("untriaged signature {signature}"));
            }
        }

        if log.traced() {
            let trial_ms: Vec<f64> = pass.segments.iter().map(|s| s * 1e3).collect();
            pass.put("resilience.observe.trial_ms_p50", median(&trial_ms));
            pass.put(
                "resilience.observe.trial_ms_p90",
                percentile(&trial_ms, 0.9),
            );
            pass.put("resilience.fuzz.signatures", outcome.cases.len() as f64);
            pass.put("resilience.fuzz.failures", f64::from(outcome.failures));
            pass.put("host.fuzz.sys_frac", usage.sys_frac_since(&before));
            let handoffs = usage.ctx_switches_since(&before);
            pass.put(
                "host.fuzz.ctx_per_unit",
                handoffs as f64 / pass.units.max(1) as f64,
            );
            // `observe` keeps its worlds to itself, so the driver
            // thread's context switches are the only handoff count.
            pass.ledger = Some(LedgerInputs {
                wall_s: pass.wall_s(),
                handoffs,
                switches: 0,
                timer_ops: 0,
                sink_events: 0,
                worlds: u64::from(outcome.trials),
                snapshots: slices,
            });
            // The stored-case path, on the sweep's first find. Outside
            // the segments: an untraced pass does not run it.
            if let Some(found) = outcome.cases.first() {
                const ROUND_TRIPS: u32 = 200;
                let t = Instant::now();
                let ok = (0..ROUND_TRIPS).all(|_| case_round_trips(&found.case));
                pass.put(
                    "resilience.case.roundtrip_us",
                    t.elapsed().as_secs_f64() * 1e6 / f64::from(ROUND_TRIPS),
                );
                let (replayed, s) = log.time("replay", 0, || replay(&found.case));
                pass.put("resilience.replay.case_ms", s * 1e3);
                pass.attempted += 2;
                if !ok {
                    pass.fail("a stored case changed in a JSON round trip".to_string());
                }
                if replayed.signature().as_deref() != Some(found.case.signature.as_str()) {
                    pass.fail("a stored case did not replay to its signature".to_string());
                }
            }
        }
        pass
    }
}
