//! `serve`: the reference cell of the overload-resilient server world,
//! built, run to drain and reported as `repro serve` does.

use pcr::{secs, RunLimit, StopReason};
use serverd::{build_sim, ServeSpec};
use workloads::serve::outcome_report;

use crate::host;
use crate::matrix::implied_handoffs;
use crate::spans::SpanLog;
use crate::workload::{fnv1a, LedgerInputs, Pass, Sizes, Workload};

pub struct Serve {
    spec: ServeSpec,
}

impl Serve {
    pub fn new(sizes: &Sizes, seed: u64) -> Serve {
        Serve {
            spec: ServeSpec::reference(sizes.serve_sessions, seed),
        }
    }
}

impl Workload for Serve {
    fn unit(&self) -> &'static str {
        "requests"
    }

    fn pass(&mut self, log: &mut SpanLog) -> Pass {
        let mut pass = Pass::default();
        let spec = &self.spec;
        let before = host::Usage::now();
        let whole = log.open("serve", spec.seed);
        let ((mut sim, handle), s) =
            log.time("build_sim", 0, || build_sim(spec.clone(), None, None));
        pass.segments.push(s);
        // Run to drain, within the limit `serverd::run_serve` allows, a
        // virtual second at a time: the report is the same as from one
        // call, and each second is a segment of its own.
        let mut remaining = spec.window * 3 + secs(60);
        let run = log.open("run", 0);
        let drained = loop {
            let step = secs(1).min(remaining);
            let id = pass.segments.len() as u64;
            let (slice, s) = log.time("slice", id, || sim.run(RunLimit::For(step)));
            pass.segments.push(s);
            remaining = remaining.saturating_sub(step);
            match slice.reason {
                StopReason::AllExited => break true,
                StopReason::TimeLimit if !remaining.is_zero() => {}
                _ => break false,
            }
        };
        let _ = log.close(run);
        let stats = sim.stats().clone();
        let alloc = sim.alloc_counters();
        let os_threads = host::os_threads();
        let (report, s) = log.time("report_encode", 0, || {
            let outcome = handle.into_result()?.ok().filter(|_| drained)?;
            let report = outcome_report(spec, &outcome);
            let text = report.to_json().to_string();
            drop(sim);
            Some((report, text))
        });
        pass.segments.push(s);
        let _ = log.close(whole);

        let Some((report, text)) = report else {
            pass.attempted = 1;
            pass.fail("the serve world did not drain".to_string());
            return pass;
        };
        let c = &report.counters;
        pass.units = c.offered;
        pass.attempted = c.offered;
        // A shed or timed-out request is an outcome the report accounts
        // for; a request the report loses track of is a failure.
        let lost = c.offered.abs_diff(c.resolved());
        if lost > 0 {
            pass.failed += lost;
            pass.complaints.push(format!(
                "offered {} != painted + timed_out + shed + failed {}",
                c.offered,
                c.resolved()
            ));
        }
        pass.digest
            .insert("report".to_string(), fnv1a(text.as_bytes()));
        pass.digest
            .insert("offered".to_string(), c.offered.to_string());
        pass.digest
            .insert("painted".to_string(), c.painted.to_string());

        if log.traced() {
            let usage = host::Usage::now();
            let offered = c.offered.max(1) as f64;
            // The fleet's own wheel is private to `Serve.Main`; per
            // request it arms a deadline and the session's next event,
            // and per session the arrival.
            let fleet_timers = 2 * c.offered + u64::from(spec.sessions) + c.retries;
            let ledger = LedgerInputs {
                wall_s: pass.wall_s(),
                handoffs: implied_handoffs(&stats),
                switches: stats.switches,
                timer_ops: alloc.timer_node_allocs + alloc.timer_node_reuses + fleet_timers,
                sink_events: 0,
                worlds: 1,
                snapshots: 0,
            };
            pass.ledger = Some(ledger);
            pass.put(
                "pcr.sched.serve.events_per_request",
                stats.event_volume() as f64 / offered,
            );
            pass.put("pcr.wheel.serve.timer_ops", ledger.timer_ops as f64);
            pass.put("serverd.world.goodput_per_vs", report.goodput_per_sec);
            pass.put(
                "serverd.world.shed_frac",
                (c.offered - c.painted) as f64 / offered,
            );
            pass.put("serverd.world.retry_amplification", report.amplification);
            pass.put("serverd.world.echo_p50_ms", report.p50_us as f64 / 1e3);
            pass.put("serverd.world.echo_p99_ms", report.p99_us as f64 / 1e3);
            pass.put("host.serve.sys_frac", usage.sys_frac_since(&before));
            pass.put("host.serve.os_threads_peak", os_threads as f64);
            pass.put(
                "host.serve.ctx_per_unit",
                usage.ctx_switches_since(&before) as f64 / offered,
            );
        }
        pass
    }
}
