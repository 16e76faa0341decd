//! `matrix`: the twelve Cedar/GVX cells of the paper's Tables 1–3, one
//! at a time, as `repro bench` runs them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pcr::{secs, ChaosConfig, PolicyKind, RunLimit, SimStats};
use trace::Collector;
use workloads::{paper_row, BenchResult, Benchmark, System};

use crate::host;
use crate::spans::SpanLog;
use crate::stats::{median, percentile};
use crate::workload::{LedgerInputs, Pass, Sizes, Workload};

/// The virtual warm-up `workloads::run_benchmark_with` runs before its
/// window; the staged path must match it for the digests to agree.
const WARMUP_S: u64 = 2;

pub struct Matrix {
    seed: u64,
    window_s: u64,
}

impl Matrix {
    pub fn new(sizes: &Sizes, seed: u64) -> Matrix {
        Matrix {
            seed,
            window_s: sizes.matrix_window_s,
        }
    }
}

/// The twelve cells in Table 1's row order.
pub fn cells() -> impl Iterator<Item = (System, Benchmark)> {
    [System::Cedar, System::Gvx]
        .into_iter()
        .flat_map(|sys| Benchmark::suite(sys).iter().map(move |&b| (sys, b)))
}

pub fn cell_label(sys: System, bench: Benchmark) -> String {
    format!("{}-{bench}", sys.name()).to_lowercase()
}

/// Baton round trips implied by a world's counters: every `ThreadCtx`
/// call is one, so a monitor entry is two (enter and exit) and a wait,
/// signal, yield, fork and exit one each. `work` and `sleep` calls are
/// not in [`SimStats`] and stay in the ledger's unattributed remainder.
pub fn implied_handoffs(stats: &SimStats) -> u64 {
    2 * stats.ml_enters
        + stats.cv_waits
        + stats.cv_notifies
        + stats.cv_broadcasts
        + stats.yields
        + stats.forks
        + stats.exits
}

/// What the staged path sees of a cell that the whole call hides.
struct Staged {
    window_s: f64,
    /// Counters over the whole cell, warm-up included: the ledger
    /// divides by the whole call's wall time.
    stats: SimStats,
    timer_ops: u64,
    os_threads: u64,
}

/// `run_benchmark_policy`, taken apart at its own seams so that build,
/// warm-up, window and harvest each get a span.
fn run_cell_in_stages(
    sys: System,
    bench: Benchmark,
    window_s: u64,
    seed: u64,
    id: u64,
    log: &mut SpanLog,
) -> (BenchResult, Staged) {
    let (mut sim, _) = log.time("build", id, || {
        workloads::build_chaos_with(sys, bench, seed, ChaosConfig::none(), |cfg| {
            cfg.with_policy(PolicyKind::RoundRobin)
        })
    });
    let (warmup, _) = log.time("warmup", id, || sim.run(RunLimit::For(secs(WARMUP_S))));
    assert!(!warmup.deadlocked(), "deadlocked in warm-up");
    let start_stats = sim.stats().clone();
    let start_alloc = sim.alloc_counters();
    sim.set_sink(Box::new(Collector::for_sim(&sim)));
    let (report, window_s) = log.time("window", id, || sim.run(RunLimit::For(secs(window_s))));
    assert!(!report.deadlocked(), "deadlocked in the window");
    let stats = sim.stats().clone();
    assert_eq!(stats.panics, 0, "a world thread panicked");
    let alloc = sim.alloc_counters();
    let os_threads = host::os_threads();
    let (result, _) = log.time("harvest", id, || {
        let r = workloads::harvest(
            &mut sim,
            sys,
            bench,
            &start_stats,
            start_alloc,
            report.elapsed,
            report.hazards,
        );
        drop(sim);
        r
    });
    let staged = Staged {
        window_s,
        stats,
        timer_ops: alloc.timer_node_allocs + alloc.timer_node_reuses,
        os_threads,
    };
    (result, staged)
}

/// Relative error of a cell's four Table 1–2 rates against the paper's.
fn paper_errors(r: &BenchResult) -> [f64; 4] {
    let paper = paper_row(r.system, r.benchmark);
    let err = |got: f64, want: f64| (got - want).abs() / want;
    [
        err(r.rates.switches_per_sec, paper.switches_per_sec),
        err(r.rates.waits_per_sec, paper.waits_per_sec),
        err(r.rates.timeout_pct, paper.timeout_pct),
        err(r.rates.ml_enters_per_sec, paper.ml_enters_per_sec),
    ]
}

impl Workload for Matrix {
    fn unit(&self) -> &'static str {
        "events"
    }

    fn pass(&mut self, log: &mut SpanLog) -> Pass {
        let mut pass = Pass::default();
        let mut ledger = LedgerInputs::default();
        let mut errors = Vec::new();
        let (mut cv_waits, mut cv_timeouts, mut ml_enters, mut forks) = (0, 0, 0, 0);
        let mut os_threads_peak = 0;
        let from = log.spans.len();
        let before = host::Usage::now();
        for (id, (sys, bench)) in cells().enumerate() {
            let id = id as u64;
            let label = cell_label(sys, bench);
            let cell = log.open("cell", id);
            // A cell that deadlocks or panics is a failed operation, not
            // the end of the run.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if log.traced() {
                    let (r, staged) =
                        run_cell_in_stages(sys, bench, self.window_s, self.seed, id, log);
                    (r, Some(staged))
                } else {
                    let r = workloads::run_benchmark_policy(
                        sys,
                        bench,
                        secs(self.window_s),
                        self.seed,
                        PolicyKind::RoundRobin,
                    );
                    (r, None)
                }
            }));
            pass.segments.push(log.close(cell));
            pass.attempted += 1;
            let Ok((r, staged)) = outcome else {
                pass.fail(format!("cell {label} deadlocked or panicked"));
                continue;
            };
            pass.units += r.event_volume;
            pass.digest
                .insert(label.clone(), r.event_volume.to_string());
            errors.extend(paper_errors(&r));
            if let Some(Staged {
                window_s,
                stats,
                timer_ops,
                os_threads,
            }) = staged
            {
                pass.put(
                    &format!("workloads.cell.{label}.events_per_s"),
                    r.event_volume as f64 / window_s,
                );
                ledger.handoffs += implied_handoffs(&stats);
                ledger.switches += stats.switches;
                ledger.timer_ops += timer_ops;
                ledger.sink_events += r.event_volume;
                ledger.worlds += 1;
                cv_waits += stats.cv_waits;
                cv_timeouts += stats.cv_timeouts;
                ml_enters += stats.ml_enters;
                forks += stats.forks;
                os_threads_peak = os_threads_peak.max(os_threads);
            }
        }
        if log.traced() {
            let usage = host::Usage::now();
            ledger.wall_s = pass.wall_s();
            pass.ledger = Some(ledger);
            pass.put("pcr.sched.matrix.switches", ledger.switches as f64);
            pass.put("pcr.sched.matrix.ml_enters", ml_enters as f64);
            pass.put("pcr.sched.matrix.cv_waits", cv_waits as f64);
            pass.put("pcr.sched.matrix.cv_timeouts", cv_timeouts as f64);
            pass.put("pcr.sched.matrix.forks", forks as f64);
            pass.put("pcr.wheel.matrix.timer_ops", ledger.timer_ops as f64);
            pass.put(
                "workloads.runner.build_warmup_ms",
                (log.total_s(from, "build") + log.total_s(from, "warmup")) * 1e3,
            );
            pass.put(
                "workloads.runner.harvest_ms",
                log.total_s(from, "harvest") * 1e3,
            );
            if !errors.is_empty() {
                pass.put("workloads.paper_err_p50", median(&errors));
                pass.put("workloads.paper_err_p75", percentile(&errors, 0.75));
            }
            pass.put("host.matrix.sys_frac", usage.sys_frac_since(&before));
            pass.put("host.matrix.os_threads_peak", os_threads_peak as f64);
            pass.put(
                "host.matrix.ctx_per_unit",
                usage.ctx_switches_since(&before) as f64 / pass.units.max(1) as f64,
            );
        }
        pass
    }
}

/// A cell's event volume at `repro bench`'s own 30 s window and seed.
pub fn volume_at_30s(sys: System, bench: Benchmark) -> u64 {
    workloads::run_benchmark_policy(
        sys,
        bench,
        workloads::DEFAULT_WINDOW,
        crate::workload::DEFAULT_SEED,
        PolicyKind::RoundRobin,
    )
    .event_volume
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_metric_name_safe() {
        let labels: Vec<String> = cells().map(|(s, b)| cell_label(s, b)).collect();
        assert_eq!(labels.len(), 12);
        assert_eq!(labels[0], "cedar-idle");
        assert_eq!(labels[11], "gvx-scroll");
    }

    /// The tie to the checked-in `BENCH_threadstudy.json`: at 30 s the
    /// twelve cells still produce its 613,443 events, cell by cell.
    #[test]
    #[ignore = "ten seconds of simulation; run.sh --selfcheck runs it"]
    fn thirty_second_volumes_are_those_of_bench_threadstudy() {
        crate::host::pin_to_one_cpu().expect("pin");
        let expected = crate::golden::matrix_30s();
        for (sys, bench) in cells() {
            let label = cell_label(sys, bench);
            assert_eq!(volume_at_30s(sys, bench), expected[&label], "{label}");
        }
    }
}
