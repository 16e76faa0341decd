//! Regenerating the paper's Tables 1–4.

use pcr::SimDuration;
use trace::{f0, f1, pct, Json, Table};
use workloads::{paper_row, run_benchmark, BenchResult, Benchmark, System};

use crate::executor::{run_indexed, Reporter};

/// The twelve matrix cells (eight Cedar + four GVX), in table order.
pub fn matrix() -> Vec<(System, Benchmark)> {
    let mut cells = Vec::new();
    for sys in [System::Cedar, System::Gvx] {
        for &b in Benchmark::suite(sys) {
            cells.push((sys, b));
        }
    }
    cells
}

/// All twelve benchmark runs, in table order, on every available
/// hardware thread. See [`run_all_with_workers`].
pub fn run_all(window: SimDuration, seed: u64) -> Vec<BenchResult> {
    run_all_with_workers(window, seed, workers_available())
}

/// Hardware threads available to the parallel driver.
pub fn workers_available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs the matrix one cell at a time on the calling thread.
pub fn run_all_serial(window: SimDuration, seed: u64) -> Vec<BenchResult> {
    run_all_with_workers(window, seed, 1)
}

/// Runs the matrix on `workers` threads through the host executor.
/// Each cell is an independent deterministic simulation, so
/// every worker count produces identical results for a given
/// `(window, seed)` — the choice only affects wall-clock time.
pub fn run_all_with_workers(window: SimDuration, seed: u64, workers: usize) -> Vec<BenchResult> {
    let cells = matrix();
    let reporter = Reporter::new();
    let (results, _) = run_indexed(workers, cells.len(), |i| {
        let (sys, b) = cells[i];
        reporter.line(&format!("  running {} / {b:?} ...", sys.name()));
        run_benchmark(sys, b, window, seed)
    });
    results
}

fn rows_for(results: &[BenchResult], sys: System) -> impl Iterator<Item = &BenchResult> {
    results.iter().filter(move |r| r.system == sys)
}

/// Table 1: forking and thread-switching rates, with the paper's
/// published values alongside.
pub fn table1(results: &[BenchResult]) -> Table {
    let mut t = Table::new(
        "Table 1: Forking and thread-switching rates (measured vs paper)",
        &[
            "Benchmark",
            "Forks/sec",
            "(paper)",
            "Switches/sec",
            "(paper)",
        ],
    );
    for sys in [System::Cedar, System::Gvx] {
        for r in rows_for(results, sys) {
            let p = paper_row(sys, r.benchmark);
            t.row(vec![
                r.rates.name.clone(),
                f1(r.rates.forks_per_sec),
                f1(p.forks_per_sec),
                f0(r.rates.switches_per_sec),
                f0(p.switches_per_sec),
            ]);
        }
    }
    t
}

/// Table 2: CV wait and monitor entry rates.
pub fn table2(results: &[BenchResult]) -> Table {
    let mut t = Table::new(
        "Table 2: Wait-CV and monitor entry rates (measured vs paper)",
        &[
            "Benchmark",
            "Waits/sec",
            "(paper)",
            "%timeouts",
            "(paper)",
            "ML-enters/sec",
            "(paper)",
            "%contended",
        ],
    );
    for sys in [System::Cedar, System::Gvx] {
        for r in rows_for(results, sys) {
            let p = paper_row(sys, r.benchmark);
            t.row(vec![
                r.rates.name.clone(),
                f0(r.rates.waits_per_sec),
                f0(p.waits_per_sec),
                pct(r.rates.timeout_pct),
                pct(p.timeout_pct),
                f0(r.rates.ml_enters_per_sec),
                f0(p.ml_enters_per_sec),
                format!("{:.3}%", r.rates.contention_pct),
            ]);
        }
    }
    t
}

/// Table 3: number of distinct CVs and monitor locks used.
pub fn table3(results: &[BenchResult]) -> Table {
    let mut t = Table::new(
        "Table 3: Number of different CVs and monitor locks used (measured vs paper)",
        &["Benchmark", "#CVs", "(paper)", "#MLs", "(paper)"],
    );
    for sys in [System::Cedar, System::Gvx] {
        for r in rows_for(results, sys) {
            let p = paper_row(sys, r.benchmark);
            t.row(vec![
                r.rates.name.clone(),
                r.rates.distinct_cvs.to_string(),
                p.distinct_cvs.to_string(),
                r.rates.distinct_mls.to_string(),
                p.distinct_mls.to_string(),
            ]);
        }
    }
    t
}

/// Table 4: static paradigm counts from the census.
pub fn table4() -> Table {
    let inv = workloads::inventory::census();
    let cedar = inv.counts(System::Cedar);
    let gvx = inv.counts(System::Gvx);
    let (ct, gt) = (
        inv.total(System::Cedar) as f64,
        inv.total(System::Gvx) as f64,
    );
    let mut t = Table::new(
        "Table 4: Static counts of thread paradigms",
        &["Paradigm", "Cedar", "%", "GVX", "%"],
    );
    for p in threadstudy_core::Paradigm::ALL {
        t.row(vec![
            p.table_label().to_string(),
            cedar[&p].to_string(),
            pct(100.0 * cedar[&p] as f64 / ct),
            gvx[&p].to_string(),
            pct(100.0 * gvx[&p] as f64 / gt),
        ]);
    }
    t.row(vec![
        "TOTAL".to_string(),
        format!("{}", inv.total(System::Cedar)),
        "100%".to_string(),
        format!("{}", inv.total(System::Gvx)),
        "100%".to_string(),
    ]);
    t
}

/// The §6.1/§6.2 profile of one run as JSON: per-monitor contention
/// rows plus the per-priority wakeup-to-run latency histogram.
pub fn profile_json(rows: &[trace::MonitorProfileRow], lat: &pcr::SchedLatency) -> Json {
    let contention = rows.iter().map(|row| {
        let p = &row.profile;
        Json::obj([
            ("monitor", Json::from(&*row.name)),
            ("enters", Json::from(p.enters)),
            ("contended", Json::from(p.contended)),
            ("total_hold_us", Json::from(p.total_hold.as_micros())),
            ("max_hold_us", Json::from(p.max_hold.as_micros())),
            ("total_wait_us", Json::from(p.total_wait.as_micros())),
            ("max_wait_us", Json::from(p.max_wait.as_micros())),
        ])
    });
    let levels = lat.levels.iter().enumerate();
    let latency = levels.filter(|(_, h)| h.count() > 0).map(|(p, h)| {
        Json::obj([
            ("priority", Json::from((p + 1) as u64)),
            ("dispatches", Json::from(h.count())),
            (
                "mean_wait_us",
                Json::from(lat.mean_wait(p).map_or(0, |d| d.as_micros())),
            ),
            ("max_wait_us", Json::from(h.max_us())),
            ("log2_us_histogram", Json::from(h.counts().to_vec())),
        ])
    });
    Json::obj([
        ("contention", Json::arr(contention)),
        ("sched_latency", Json::arr(latency)),
    ])
}

/// Renders the §6.1 contention and §6.2 latency tables for the two
/// reference cells (Cedar/Keyboard and GVX/Scroll) out of an
/// already-run matrix. `markdown` picks the output dialect.
pub fn profile_section(results: &[BenchResult], markdown: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in results {
        let reference = matches!(
            (r.system, r.benchmark),
            (System::Cedar, Benchmark::Keyboard) | (System::Gvx, Benchmark::Scroll)
        );
        if !reference {
            continue;
        }
        let _ = writeln!(out, "== {} ==", r.rates.name);
        let shown = r.contention.len().min(12);
        let ct = trace::contention_table(&r.contention[..shown]);
        let lt = trace::latency_table(&r.sched_latency);
        if markdown {
            let _ = writeln!(out, "{}", ct.to_markdown());
            let _ = writeln!(out, "{}", lt.to_markdown());
        } else {
            let _ = writeln!(out, "{}", ct.to_text());
            let _ = writeln!(out, "{}", lt.to_text());
        }
        if r.contention.len() > shown {
            let _ = writeln!(
                out,
                "({} more monitors below the hottest {shown})\n",
                r.contention.len() - shown
            );
        }
    }
    out
}

/// Machine-readable summary of all runs: the table rows, the paper's
/// values, figure scalars, profiles, and the census counts.
pub fn json_summary(results: &[BenchResult]) -> Json {
    let rows = results.iter().map(|r| {
        let p = paper_row(r.system, r.benchmark);
        Json::obj([
            ("system", Json::from(r.system.name())),
            ("benchmark", Json::from(format!("{:?}", r.benchmark))),
            ("measured", r.rates.to_json()),
            (
                "paper",
                Json::obj([
                    ("forks_per_sec", Json::from(p.forks_per_sec)),
                    ("switches_per_sec", Json::from(p.switches_per_sec)),
                    ("waits_per_sec", Json::from(p.waits_per_sec)),
                    ("timeout_pct", Json::from(p.timeout_pct)),
                    ("ml_enters_per_sec", Json::from(p.ml_enters_per_sec)),
                    ("distinct_cvs", Json::from(p.distinct_cvs)),
                    ("distinct_mls", Json::from(p.distinct_mls)),
                ]),
            ),
            (
                "figures",
                Json::obj([
                    (
                        "short_interval_fraction",
                        Json::from(r.intervals.fraction_between(pcr::millis(0), pcr::millis(5))),
                    ),
                    (
                        "quantum_interval_cpu_share",
                        Json::from(
                            r.intervals
                                .time_fraction_between(pcr::millis(44), pcr::millis(51)),
                        ),
                    ),
                    ("max_generation", Json::from(r.max_generation)),
                    ("max_live_threads", Json::from(r.max_live_threads)),
                    (
                        "cpu_by_priority_us",
                        Json::from(
                            r.cpu_by_priority
                                .iter()
                                .map(|d| d.as_micros())
                                .collect::<Vec<_>>(),
                        ),
                    ),
                ]),
            ),
            ("profile", profile_json(&r.contention, &r.sched_latency)),
        ])
    });
    let inv = workloads::inventory::census();
    let census = threadstudy_core::Paradigm::ALL.iter().map(|&p| {
        Json::obj([
            ("paradigm", Json::from(p.table_label())),
            ("cedar", Json::from(inv.counts(System::Cedar)[&p])),
            ("gvx", Json::from(inv.counts(System::Gvx)[&p])),
        ])
    });
    Json::obj([
        ("benchmarks", Json::arr(rows)),
        ("table4", Json::arr(census)),
    ])
}

/// Figure: execution-interval distribution for one run (§3's bimodal
/// shape).
pub fn interval_figure(r: &BenchResult) -> String {
    use std::fmt::Write as _;
    let h = &r.intervals;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Execution intervals — {} ({:?}):",
        r.rates.name, r.system
    );
    let _ = writeln!(
        out,
        "  intervals 0-5ms:   {:5.1}% of count (paper: 50-75%)",
        100.0 * h.fraction_between(pcr::millis(0), pcr::millis(5))
    );
    let _ = writeln!(
        out,
        "  intervals 45-50ms: {:5.1}% of count, {:5.1}% of CPU time (paper: 20-80% of time)",
        100.0 * h.fraction_between(pcr::millis(45), pcr::millis(50)),
        100.0 * h.time_fraction_between(pcr::millis(45), pcr::millis(50))
    );
    if let Some(mode) = h.mode_at_or_above(pcr::millis(10)) {
        let _ = writeln!(out, "  second mode at:    {mode} (paper: ~45ms)");
    }
    let mut bars = String::new();
    for (ms, n, cpct, _) in h.rows() {
        if n == 0 {
            continue;
        }
        let bar = "#".repeat(((cpct * 0.8) as usize).clamp(1, 60));
        let _ = writeln!(bars, "  {ms:>3}ms {n:>7} {bar}");
    }
    out.push_str(&bars);
    out
}

/// Figure: CPU by priority level for one run.
pub fn priority_figure(r: &BenchResult) -> String {
    use std::fmt::Write as _;
    let total: u64 = r.cpu_by_priority.iter().map(|d| d.as_micros()).sum();
    let mut out = String::new();
    let _ = writeln!(out, "CPU by priority — {}:", r.rates.name);
    for (i, d) in r.cpu_by_priority.iter().enumerate() {
        let sharepct = if total == 0 {
            0.0
        } else {
            100.0 * d.as_micros() as f64 / total as f64
        };
        let bar = "#".repeat((sharepct * 0.6) as usize);
        let _ = writeln!(out, "  P{} {:6.1}% {bar}", i + 1, sharepct);
    }
    out
}

/// Figure: fork generations (§3: never exceeds 2).
pub fn generation_figure(results: &[BenchResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fork generations per benchmark (paper: no generation > 2 below the workers):"
    );
    for r in results {
        let _ = writeln!(
            out,
            "  {:24} max generation {}  counts {:?}",
            r.rates.name, r.max_generation, r.generation_counts
        );
    }
    out
}
