//! `repro serve`: the overload-resilient server world behind a CLI —
//! run a scenario cell, gate it on the input-to-echo SLOs, and
//! regression-check a stored `threadstudy-serve-v1` baseline.

use crate::exit;
use pcr::millis;
use workloads::serve::{self, ServeReport, ServeScenario, ServeSpec};

/// Options for one `repro serve` invocation.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Client sessions.
    pub sessions: u32,
    /// Master seed.
    pub seed: u64,
    /// Scenario cell.
    pub scenario: ServeScenario,
    /// Simulated pipeline worker threads (None = spec default).
    pub pipeline_workers: Option<usize>,
    /// Replicas to run (each must produce byte-identical JSON).
    pub reps: u32,
    /// Host executor workers for the replicas.
    pub workers: usize,
    /// Scheduling policy.
    pub policy: pcr::PolicyKind,
    /// Disable the client retry budget (the E17 counterfactual).
    pub no_retry_budget: bool,
    /// SLO overrides, milliseconds.
    pub slo_p50_ms: Option<u64>,
    /// 99th-percentile override.
    pub slo_p99_ms: Option<u64>,
    /// 99.9th-percentile override.
    pub slo_p999_ms: Option<u64>,
    /// Write the report JSON here.
    pub json: Option<String>,
    /// Regression-check against this stored report.
    pub baseline: Option<String>,
    /// Also record a Perfetto (Chrome trace-event) file of one run.
    pub chrome: Option<String>,
}

impl ServeOpts {
    /// Defaults matching the reference cell at 25k sessions.
    pub fn new(sessions: u32, seed: u64) -> ServeOpts {
        ServeOpts {
            sessions,
            seed,
            scenario: ServeScenario::Reference,
            pipeline_workers: None,
            reps: 1,
            workers: 1,
            policy: pcr::PolicyKind::default(),
            no_retry_budget: false,
            slo_p50_ms: None,
            slo_p99_ms: None,
            slo_p999_ms: None,
            json: None,
            baseline: None,
            chrome: None,
        }
    }

    /// The fully-resolved spec this invocation runs.
    pub fn spec(&self) -> ServeSpec {
        let mut spec = ServeSpec::scenario(self.scenario, self.sessions, self.seed);
        spec.policy = self.policy;
        if let Some(w) = self.pipeline_workers {
            spec.workers = w;
        }
        if self.no_retry_budget {
            spec.retry.budget_enabled = false;
        }
        if let Some(ms) = self.slo_p50_ms {
            spec.slo.p50 = millis(ms);
        }
        if let Some(ms) = self.slo_p99_ms {
            spec.slo.p99 = millis(ms);
        }
        if let Some(ms) = self.slo_p999_ms {
            spec.slo.p999 = millis(ms);
        }
        spec
    }
}

/// Runs `repro serve` and returns the exit code.
pub fn serve_cmd(opts: &ServeOpts) -> i32 {
    let spec = opts.spec();
    let label = format!(
        "serve {}/{} sessions, seed {:X}",
        spec.scenario_label(),
        spec.sessions,
        spec.seed
    );
    // Every replica is an independent deterministic sim; the executor
    // spreads them over host threads. Identical specs must produce
    // byte-identical reports at every worker count.
    let reps = opts.reps.max(1) as usize;
    let (reports, _exec) =
        crate::executor::run_indexed(opts.workers, reps, |_i| serve::run_report(spec.clone()));
    let report = &reports[0];
    let json = report.to_json().to_string();
    let mut code = exit::OK;
    for (i, r) in reports.iter().enumerate().skip(1) {
        if r.to_json().to_string() != json {
            eprintln!("FAIL {label}: replica {i} diverged from replica 0");
            code = exit::worst(code, exit::HAZARD);
        }
    }
    print!("{}", report.text());

    if let Some(path) = &opts.chrome {
        code = exit::worst(code, write_chrome_trace(&spec, path));
    }
    if let Some(path) = &opts.json {
        code = exit::worst(code, exit::write(path, json.clone() + "\n"));
    }
    if let Some(path) = &opts.baseline {
        code = exit::worst(code, check_baseline(report, path));
    }
    let breaches = report.slo_breaches();
    for b in &breaches {
        eprintln!("FAIL {label}: SLO breach: {b}");
    }
    if !breaches.is_empty() {
        code = exit::worst(code, exit::SLO_BREACH);
    } else {
        println!("slo: all gates met");
    }
    code
}

fn check_baseline(report: &ServeReport, path: &str) -> i32 {
    let base = match trace::Json::load(path, ServeReport::from_json) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("FAIL serve --baseline: {e}");
            return exit::IO;
        }
    };
    let regressions = report.compare_baseline(&base);
    if regressions.is_empty() {
        println!("baseline {path}: no regressions");
        return exit::OK;
    }
    for r in &regressions {
        eprintln!("FAIL serve vs baseline {path}: {r}");
    }
    exit::REGRESSION
}

/// Records one run of the spec with the trace sink attached and writes
/// a Chrome trace-event file for ui.perfetto.dev.
fn write_chrome_trace(spec: &ServeSpec, path: &str) -> i32 {
    let window = spec.window;
    let (mut sim, _handle) = serverd::build_sim(spec.clone(), None, None);
    sim.set_sink(Box::new(pcr::VecSink::default()));
    let report = sim.run(pcr::RunLimit::For(window * 3 + pcr::secs(60)));
    if report.deadlocked() {
        eprintln!(
            "FAIL serve --chrome: traced run deadlocked ({:?})",
            report.reason
        );
        return exit::DEADLOCK;
    }
    let labels = trace::TraceLabels::from_sim(&sim);
    let events = trace::take_collector::<pcr::VecSink>(&mut sim)
        .expect("vec sink")
        .events;
    let f = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("FAIL serve --chrome: cannot create {path}: {e}");
            return exit::IO;
        }
    };
    if let Err(e) = trace::write_chrome(&events, &labels, std::io::BufWriter::new(f)) {
        eprintln!("FAIL serve --chrome: cannot write {path}: {e}");
        return exit::IO;
    }
    eprintln!("wrote {path}");
    exit::OK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_resolve_overrides_into_the_spec() {
        let mut opts = ServeOpts::new(1000, 0xA5);
        opts.scenario = ServeScenario::Outage;
        opts.pipeline_workers = Some(4);
        opts.no_retry_budget = true;
        opts.slo_p99_ms = Some(75);
        let spec = opts.spec();
        assert_eq!(spec.workers, 4);
        assert!(!spec.retry.budget_enabled);
        assert_eq!(spec.slo.p99, millis(75));
        assert!(!spec.outage.is_empty());
        assert_eq!(spec.scenario_label(), "outage");
    }

    #[test]
    fn serve_cmd_small_reference_meets_gates() {
        let mut opts = ServeOpts::new(2000, 0xA5);
        opts.reps = 2;
        opts.workers = 2;
        assert_eq!(serve_cmd(&opts), exit::OK);
    }

    #[test]
    fn serve_cmd_flags_an_impossible_slo() {
        let mut opts = ServeOpts::new(1000, 0xA5);
        // 0ms p99 cannot be met by any run that paints anything.
        opts.slo_p99_ms = Some(0);
        assert_eq!(serve_cmd(&opts), exit::SLO_BREACH);
    }
}
