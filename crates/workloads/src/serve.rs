//! The serve world as a first-class workload: reference cells for the
//! matrix and small hot cells for the resilience fuzzer.
//!
//! The heavy lifting lives in the `serverd` crate; this module is the
//! glue that makes "serve" look like the other worlds — named cells,
//! chaos composition, and a single spawn point the fuzzer can drive.

pub use serverd::{run_serve, ServeOutcome, ServeReport, ServeScenario, ServeSpec, SloTargets};

/// Builds a small, hot serve world for fuzzing: the sim is configured
/// with `chaos` faults and an optional thread cap, and the caller runs
/// it however the fuzz harness likes.
pub fn build_fuzz_world(
    sc: ServeScenario,
    seed: u64,
    chaos: pcr::ChaosConfig,
    max_threads: Option<usize>,
) -> pcr::Sim {
    let spec = ServeSpec::fuzz_small(sc, seed);
    let chaos = if chaos.is_active() { Some(chaos) } else { None };
    let (sim, _handle) = serverd::world::build_sim(spec, chaos, max_threads);
    sim
}

/// Builds the report for a finished outcome, excluding wall-clock so
/// equal seeds produce byte-identical JSON.
pub fn outcome_report(spec: &ServeSpec, outcome: &ServeOutcome) -> ServeReport {
    let window_secs = spec.window.as_micros() as f64 / 1e6;
    let c = &outcome.counters;
    let mut report = ServeReport {
        sessions: spec.sessions,
        seed: spec.seed,
        window_us: spec.window.as_micros(),
        policy: format!("{:?}", spec.policy).to_lowercase(),
        scenario: spec.scenario_label().to_string(),
        end_us: outcome.end.as_micros(),
        p50_us: 0,
        p99_us: 0,
        p999_us: 0,
        max_us: 0,
        mean_us: 0,
        histogram: Vec::new(),
        counters: *c,
        goodput_per_sec: c.painted as f64 / window_secs,
        amplification: c.amplification(),
        budget_suppressed: outcome.budget_suppressed,
        codel_drops: outcome.codel_drops,
        breaker_trips: outcome.breaker_trips,
        breaker_fast_failed_batches: outcome.fast_failed_batches,
        outage_failed_batches: outcome.metrics.outage_failed_batches,
        batches: outcome.metrics.batches,
        degrade: serverd::report::DegradeSummary {
            degrade_steps: outcome.ladder.degrade_steps,
            restore_steps: outcome.ladder.restore_steps,
            max_level: outcome.ladder.max_level as u64,
            time_at_level_us: outcome.ladder.time_at_level_us.to_vec(),
        },
        slo: spec.slo,
    };
    report.fill_latency(&outcome.metrics.latency);
    report
}

/// Runs a spec and reports it in one step.
pub fn run_report(spec: ServeSpec) -> ServeReport {
    let outcome = run_serve(spec.clone());
    outcome_report(&spec, &outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::secs;

    #[test]
    fn report_json_is_byte_deterministic() {
        let mk = || {
            let mut spec = ServeSpec::reference(500, 0xA5);
            spec.window = secs(5);
            run_report(spec).to_json().to_string()
        };
        let a = mk();
        assert_eq!(a, mk());
        assert!(a.starts_with(r#"{"schema":"threadstudy-serve-v1""#));
    }

    #[test]
    fn fuzz_world_runs_under_chaos() {
        let mut sim = build_fuzz_world(ServeScenario::Burst, 7, pcr::ChaosConfig::default(), None);
        let report = sim.run(pcr::RunLimit::For(secs(40)));
        assert!(matches!(
            report.reason,
            pcr::StopReason::AllExited | pcr::StopReason::TimeLimit
        ));
    }
}
