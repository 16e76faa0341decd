//! The matrix and fuzz drivers must be indistinguishable at every
//! worker count: every cell/trial is an independent deterministic
//! simulation, so fanning the work across OS threads may only change
//! wall-clock time, never a single measured number, rendered table
//! byte, or failure signature.

use bench::executor::run_indexed;
use bench::tables::{
    json_summary, matrix, run_all_with_workers, table1, table2, table3, REFERENCE_CELLS,
};
use bench::tournament::{run_tournament, TournamentOpts};
use pcr::{secs, ChaosConfig, PolicyKind};
use resilience::{fuzz, fuzz_with, observe, FuzzConfig, FuzzOutcome, Observation, TrialSpec};
use workloads::{
    chaos_preset, run_benchmark, run_benchmark_chaos, run_benchmark_policy, BenchResult,
};

fn table_text(results: &[BenchResult]) -> String {
    format!(
        "{}\n{}\n{}",
        table1(results).to_text(),
        table2(results).to_text(),
        table3(results).to_text()
    )
}

#[test]
fn worker_counts_cannot_change_matrix_results() {
    // Force at least a 2-wide and a 3-wide schedule even on small hosts:
    // the executor happily runs more workers than cores, and results
    // must be identical either way.
    let max = bench::tables::workers_available().max(3);
    let worker_counts = [2, max];
    for seed in [0xCEDA_2026u64, 0xBEEF, 0x5EED_0003] {
        let run = |workers| {
            let rr = PolicyKind::RoundRobin;
            run_all_with_workers(&matrix(), rr, secs(1), seed, workers).expect("every cell runs")
        };
        let serial = run(1);
        let serial_tables = table_text(&serial);
        let serial_json = json_summary(&serial).pretty();
        for &workers in &worker_counts {
            let parallel = run(workers);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                let label = format!(
                    "seed {seed:#x} workers {workers} {}/{:?}",
                    a.system.name(),
                    a.benchmark
                );
                assert_eq!(a.system, b.system, "{label}: cell order changed");
                assert_eq!(a.benchmark, b.benchmark, "{label}: cell order changed");
                assert_eq!(a.event_volume, b.event_volume, "{label}: event volume");
                assert_eq!(
                    a.max_live_threads, b.max_live_threads,
                    "{label}: live threads"
                );
                assert_eq!(
                    a.max_generation, b.max_generation,
                    "{label}: fork generations"
                );
                assert_eq!(
                    a.rates.switches_per_sec, b.rates.switches_per_sec,
                    "{label}: switch rate"
                );
            }
            assert_eq!(
                serial_tables,
                table_text(&parallel),
                "rendered tables diverged for seed {seed:#x} at {workers} workers"
            );
            assert_eq!(
                serial_json,
                json_summary(&parallel).pretty(),
                "JSON summary bytes diverged for seed {seed:#x} at {workers} workers"
            );
        }
    }
}

#[test]
fn fuzz_grid_signatures_are_worker_count_independent() {
    // Budget 20 reaches the second intensity layer of the Cedar cells
    // (the guaranteed-failure fork-cap rung), so the signature dedup
    // path is exercised, not just clean trials.
    let cfg = FuzzConfig {
        budget: 20,
        window: secs(2),
        ..FuzzConfig::default()
    };
    let fingerprint = |o: &FuzzOutcome| -> Vec<(String, u32)> {
        o.cases
            .iter()
            .map(|c| (c.case.signature.clone(), c.count))
            .collect()
    };
    let serial = fuzz(&cfg, |_| {});
    assert!(
        serial.failures > 0,
        "the fork-cap rung should fail within this budget"
    );
    for workers in [2usize, 4] {
        let mut runner = |batch: &[(TrialSpec, ChaosConfig)]| -> Vec<Observation> {
            let (obs, _) = run_indexed(workers, batch.len(), |i| {
                let (spec, chaos) = &batch[i];
                observe(spec, chaos.clone())
            });
            obs
        };
        let parallel = fuzz_with(&cfg, |_| {}, workers, &mut runner);
        assert_eq!(parallel.trials, serial.trials, "{workers} workers: trials");
        assert_eq!(
            parallel.failures, serial.failures,
            "{workers} workers: failures"
        );
        assert_eq!(
            fingerprint(&parallel),
            fingerprint(&serial),
            "{workers} workers: signature set diverged from serial"
        );
    }
}

#[test]
fn explicit_round_robin_matches_the_default_scheduler() {
    // `--policy rr` must be a no-op: the extracted round-robin policy
    // has to reproduce the pre-trait scheduler decision for decision.
    // Any drift shows up as a differing counter or histogram bucket in
    // the full result debug rendering.
    for seed in [0xCEDA_2026u64, 0xBEEF, 0x5EED_0003] {
        for (sys, b) in REFERENCE_CELLS {
            let default = run_benchmark(sys, b, secs(2), seed);
            let explicit = run_benchmark_policy(sys, b, secs(2), seed, PolicyKind::RoundRobin);
            assert_eq!(
                format!("{default:?}"),
                format!("{explicit:?}"),
                "seed {seed:#x} {}/{b:?}: explicit rr diverged from the default",
                sys.name()
            );
        }
    }
}

#[test]
fn tournament_reference_slice_is_complete_and_deadlock_free() {
    let opts = TournamentOpts::new(secs(1), 0xCEDA_2026, 2).reference_cells();
    let report = run_tournament(&opts);
    assert_eq!(
        report.entries.len(),
        2 * PolicyKind::ALL.len(),
        "2 reference cells x 4 policies"
    );
    assert!(
        report.failures().is_empty(),
        "reference slice wedged: {:?}",
        report
            .failures()
            .iter()
            .map(|e| format!("{}/{:?}/{}", e.system.name(), e.benchmark, e.policy))
            .collect::<Vec<_>>()
    );
    let json = report.to_json();
    assert_eq!(json.str_at("schema"), Ok("threadstudy-tournament-v1"));
    let cells = json.arr_at("cells", |cell| cell.arr_at("policies", Ok));
    let cells = cells.expect("a per-cell policy array");
    assert_eq!(cells.len(), 2);
    for policies in cells {
        assert_eq!(policies.len(), PolicyKind::ALL.len());
        for p in policies {
            assert_eq!(p.get("ok").and_then(trace::Json::as_bool), Some(true));
        }
    }
}

#[test]
fn chaos_cells_are_identical_under_concurrency() {
    // Chaos injection draws from a per-sim RNG; running two chaos worlds
    // on concurrent OS threads must not perturb either one's stream.
    let cells = REFERENCE_CELLS;
    let serial: Vec<BenchResult> = cells
        .iter()
        .map(|&(sys, b)| run_benchmark_chaos(sys, b, secs(2), 0xCEDA_2026, chaos_preset()))
        .collect();
    let concurrent: Vec<BenchResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .iter()
            .map(|&(sys, b)| {
                scope.spawn(move || {
                    run_benchmark_chaos(sys, b, secs(2), 0xCEDA_2026, chaos_preset())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos cell panicked"))
            .collect()
    });
    for (a, b) in serial.iter().zip(&concurrent) {
        let label = format!("{}/{:?}", a.system.name(), a.benchmark);
        assert_eq!(a.hazards, b.hazards, "{label}: hazard tallies");
        assert_eq!(a.event_volume, b.event_volume, "{label}: event volume");
        assert_eq!(
            a.rates.switches_per_sec, b.rates.switches_per_sec,
            "{label}: switch rate"
        );
    }
}
