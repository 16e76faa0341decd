//! Wall-clock performance harness behind `repro bench`.
//!
//! Where the rest of this crate measures *virtual-time* rates (the
//! paper's tables), this module measures how fast the simulator itself
//! chews through its benchmark matrix on the host: wall time per cell,
//! simulated events per second, and the scaling curve of the executor
//! across worker counts. The numbers land in
//! `BENCH_threadstudy.json` at the repo root, which CI uses as a
//! regression baseline.

use std::time::Instant;

use pcr::{PolicyKind, SimDuration};
use trace::Json;
use workloads::{run_benchmark_policy, Benchmark, System};

use crate::executor::{run_indexed, Reporter};
use crate::tables::matrix;

/// Wall-clock measurements for one matrix cell.
#[derive(Clone, Debug)]
pub struct CellPerf {
    /// Which system ran.
    pub system: System,
    /// Which benchmark ran.
    pub benchmark: Benchmark,
    /// Primitive events inside the measurement window (deterministic).
    pub event_volume: u64,
    /// Median wall-clock seconds across the reps.
    pub wall_secs: f64,
    /// `event_volume / wall_secs`.
    pub events_per_sec: f64,
    /// Allocation/reuse deltas over the measurement window (from the
    /// first rep; deterministic). Near-zero `*_allocs` demonstrate the
    /// pooled hot paths stop allocating after warm-up.
    pub alloc: pcr::AllocCounters,
}

/// One point of the executor scaling curve: the whole matrix, `reps`
/// times, at a fixed worker count.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Worker threads the executor ran with.
    pub workers: usize,
    /// Mean wall seconds per matrix pass at this worker count.
    pub wall_secs: f64,
    /// `serial wall / this wall`.
    pub speedup: f64,
}

/// A full perf-harness run: every cell timed `reps` times serially, plus
/// the matrix timed through the parallel executor at each point of
/// the worker-count scaling curve.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Virtual measurement window per cell.
    pub window: SimDuration,
    /// RNG seed every cell ran with.
    pub seed: u64,
    /// Scheduling policy every cell ran under.
    pub policy: PolicyKind,
    /// Repetitions each median is taken over.
    pub reps: u32,
    /// Worker threads the widest parallel pass actually used (1 when the
    /// harness ran serial-only).
    pub workers: usize,
    /// `"serial"` or `"parallel"` — which driver the run was asked for.
    pub mode: &'static str,
    /// Per-cell measurements, in table order.
    pub cells: Vec<CellPerf>,
    /// The executor scaling curve, narrowest worker count first. The
    /// first point is always the serial reference (1 worker, speedup 1).
    pub scaling: Vec<ScalingPoint>,
    /// Median wall seconds for the whole matrix, one cell at a time.
    pub serial_wall_secs: f64,
    /// Mean wall seconds per matrix pass at the widest worker count.
    pub parallel_wall_secs: f64,
    /// `serial_wall_secs / parallel_wall_secs`.
    pub parallel_speedup: f64,
    /// Sum of every cell's `event_volume`.
    pub total_events: u64,
    /// `total_events / serial_wall_secs` — the regression-check scalar.
    pub aggregate_events_per_sec: f64,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// The worker counts the scaling curve samples: 1, 2, and `max`,
/// deduplicated and capped at `max`.
pub fn scaling_worker_counts(max_workers: usize) -> Vec<usize> {
    let max = max_workers.max(1);
    let mut counts = vec![1, 2, max];
    counts.sort_unstable();
    counts.dedup();
    counts.retain(|&w| w <= max);
    counts
}

/// Runs the harness: `reps` serial passes over the matrix with per-cell
/// timing (through the executor at one worker, so serial and parallel
/// exercise the same driver), then `reps` matrix passes at each wider
/// point of the scaling curve up to `max_workers`.
///
/// # Panics
///
/// Panics if a world deadlocks, or if any parallel pass's event volumes
/// diverge from the serial pass's (a determinism bug).
pub fn measure(
    window: SimDuration,
    seed: u64,
    reps: u32,
    max_workers: usize,
    policy: PolicyKind,
) -> PerfReport {
    let reps = reps.max(1);
    let cells = matrix();
    let reporter = Reporter::new();
    let mut cell_walls: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut serial_walls: Vec<f64> = Vec::new();
    let mut volumes: Vec<u64> = vec![0; cells.len()];
    let mut allocs: Vec<pcr::AllocCounters> = vec![Default::default(); cells.len()];

    for rep in 0..reps {
        let t0 = Instant::now();
        // One worker: runs on this thread in table order, but through
        // the same executor entry point the parallel passes use.
        let (timed, _) = run_indexed(1, cells.len(), |i| {
            let (sys, b) = cells[i];
            reporter.line(&format!(
                "  bench rep {}/{reps}: {} / {b:?} ...",
                rep + 1,
                sys.name()
            ));
            let c0 = Instant::now();
            let r = run_benchmark_policy(sys, b, window, seed, policy);
            (c0.elapsed().as_secs_f64(), r)
        });
        serial_walls.push(t0.elapsed().as_secs_f64());
        for (i, (dt, r)) in timed.into_iter().enumerate() {
            let (sys, b) = cells[i];
            cell_walls[i].push(dt);
            if rep == 0 {
                volumes[i] = r.event_volume;
                allocs[i] = r.alloc;
            } else {
                assert_eq!(
                    volumes[i],
                    r.event_volume,
                    "{} / {b:?}: event volume changed between reps",
                    sys.name()
                );
            }
        }
    }
    let serial_wall_secs = median(&mut serial_walls);

    let mut scaling = vec![ScalingPoint {
        workers: 1,
        wall_secs: serial_wall_secs,
        speedup: 1.0,
    }];
    for w in scaling_worker_counts(max_workers) {
        if w <= 1 {
            continue;
        }
        let n = cells.len() * reps as usize;
        reporter.line(&format!("  bench scaling: {w} workers x {n} cell runs ..."));
        let t0 = Instant::now();
        let (vols, exec) = run_indexed(w, n, |i| {
            let (sys, b) = cells[i % cells.len()];
            run_benchmark_policy(sys, b, window, seed, policy).event_volume
        });
        let wall_secs = t0.elapsed().as_secs_f64() / reps as f64;
        for (i, v) in vols.iter().enumerate() {
            assert_eq!(
                volumes[i % cells.len()],
                *v,
                "{w}-worker pass diverged from serial on task {i}"
            );
        }
        scaling.push(ScalingPoint {
            workers: exec.workers,
            wall_secs,
            speedup: if wall_secs > 0.0 {
                serial_wall_secs / wall_secs
            } else {
                0.0
            },
        });
    }

    let cells_out: Vec<CellPerf> = cells
        .iter()
        .enumerate()
        .map(|(i, &(system, benchmark))| {
            let wall = median(&mut cell_walls[i]);
            CellPerf {
                system,
                benchmark,
                event_volume: volumes[i],
                wall_secs: wall,
                events_per_sec: if wall > 0.0 {
                    volumes[i] as f64 / wall
                } else {
                    0.0
                },
                alloc: allocs[i],
            }
        })
        .collect();

    let widest = *scaling.last().expect("scaling always has the serial point");
    let total_events: u64 = volumes.iter().sum();
    PerfReport {
        window,
        seed,
        policy,
        reps,
        workers: widest.workers,
        mode: if max_workers > 1 {
            "parallel"
        } else {
            "serial"
        },
        cells: cells_out,
        scaling,
        serial_wall_secs,
        parallel_wall_secs: widest.wall_secs,
        parallel_speedup: widest.speedup,
        total_events,
        aggregate_events_per_sec: if serial_wall_secs > 0.0 {
            total_events as f64 / serial_wall_secs
        } else {
            0.0
        },
    }
}

fn alloc_json(a: &pcr::AllocCounters) -> Json {
    Json::obj([
        ("timer_node_allocs", Json::from(a.timer_node_allocs)),
        ("timer_node_reuses", Json::from(a.timer_node_reuses)),
        ("os_thread_spawns", Json::from(a.os_thread_spawns)),
        ("os_thread_reuses", Json::from(a.os_thread_reuses)),
    ])
}

impl PerfReport {
    /// The machine-readable form written to `BENCH_threadstudy.json`.
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            Json::obj([
                ("system", Json::from(c.system.name())),
                ("benchmark", Json::from(format!("{:?}", c.benchmark))),
                ("event_volume", Json::from(c.event_volume)),
                ("wall_secs", Json::from(c.wall_secs)),
                ("events_per_sec", Json::from(c.events_per_sec)),
                ("alloc", alloc_json(&c.alloc)),
            ])
        });
        let scaling = self.scaling.iter().map(|p| {
            Json::obj([
                ("workers", Json::from(p.workers as u64)),
                ("wall_secs", Json::from(p.wall_secs)),
                ("speedup", Json::from(p.speedup)),
            ])
        });
        Json::obj([
            ("schema", Json::from("threadstudy-bench-v3")),
            ("window_us", Json::from(self.window.as_micros())),
            ("seed", Json::from(format!("{:#x}", self.seed))),
            ("policy", Json::from(self.policy.as_str())),
            ("reps", Json::from(self.reps)),
            ("workers", Json::from(self.workers)),
            ("mode", Json::from(self.mode)),
            ("serial_wall_secs", Json::from(self.serial_wall_secs)),
            ("parallel_wall_secs", Json::from(self.parallel_wall_secs)),
            ("parallel_speedup", Json::from(self.parallel_speedup)),
            ("total_events", Json::from(self.total_events)),
            (
                "aggregate_events_per_sec",
                Json::from(self.aggregate_events_per_sec),
            ),
            ("scaling", Json::arr(scaling)),
            ("cells", Json::arr(cells)),
        ])
    }

    /// A human-readable summary for stdout.
    pub fn text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Perf harness: {} cells, window {}, seed {:#x}, policy {}, median of {} reps, {} mode",
            self.cells.len(),
            self.window,
            self.seed,
            self.policy,
            self.reps,
            self.mode
        );
        let _ = writeln!(
            out,
            "{:<26} {:>12} {:>10} {:>14}",
            "Cell", "events", "wall (s)", "events/sec"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<26} {:>12} {:>10.3} {:>14.0}",
                format!("{}/{:?}", c.system.name(), c.benchmark),
                c.event_volume,
                c.wall_secs,
                c.events_per_sec
            );
        }
        let _ = writeln!(out, "scaling (wall per matrix pass):");
        for p in &self.scaling {
            let _ = writeln!(
                out,
                "  {:>3} worker(s): {:>8.3}s   speedup {:>5.2}x",
                p.workers, p.wall_secs, p.speedup
            );
        }
        let _ = writeln!(
            out,
            "serial matrix: {:.3}s   parallel matrix ({} workers): {:.3}s   speedup {:.2}x",
            self.serial_wall_secs, self.workers, self.parallel_wall_secs, self.parallel_speedup
        );
        let _ = writeln!(
            out,
            "aggregate: {} events in {:.3}s = {:.0} events/sec",
            self.total_events, self.serial_wall_secs, self.aggregate_events_per_sec
        );
        out
    }
}

/// Pulls `aggregate_events_per_sec` out of a previously written report
/// by parsing it with [`Json::parse`]; returns `None` if the text is
/// not JSON or the key is missing.
pub fn baseline_events_per_sec(text: &str) -> Option<f64> {
    Json::parse(text)
        .ok()?
        .get("aggregate_events_per_sec")
        .and_then(Json::as_f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn scaling_counts_are_deduped_and_capped() {
        assert_eq!(scaling_worker_counts(1), vec![1]);
        assert_eq!(scaling_worker_counts(2), vec![1, 2]);
        assert_eq!(scaling_worker_counts(8), vec![1, 2, 8]);
        assert_eq!(scaling_worker_counts(0), vec![1]);
    }

    #[test]
    fn baseline_extraction_roundtrips() {
        let report = PerfReport {
            window: pcr::millis(10),
            seed: 0xCEDA_2026,
            policy: PolicyKind::RoundRobin,
            reps: 1,
            workers: 2,
            mode: "parallel",
            cells: Vec::new(),
            scaling: vec![
                ScalingPoint {
                    workers: 1,
                    wall_secs: 2.0,
                    speedup: 1.0,
                },
                ScalingPoint {
                    workers: 2,
                    wall_secs: 1.0,
                    speedup: 2.0,
                },
            ],
            serial_wall_secs: 2.0,
            parallel_wall_secs: 1.0,
            parallel_speedup: 2.0,
            total_events: 1000,
            aggregate_events_per_sec: 500.0,
        };
        for text in [report.to_json().pretty(), report.to_json().to_string()] {
            assert_eq!(baseline_events_per_sec(&text), Some(500.0));
        }
        // A v2 file (per-cell profiles, steals) carries the same scalar.
        let v2 = r#"{"schema":"threadstudy-bench-v2","aggregate_events_per_sec":79213.5,
            "scaling":[{"workers":1,"steals":0}],"cells":[{"profile":{}}]}"#;
        assert_eq!(baseline_events_per_sec(v2), Some(79213.5));
        assert_eq!(baseline_events_per_sec("no such key"), None);
    }

    #[test]
    fn report_carries_schema_scaling_and_mode() {
        let report = PerfReport {
            window: pcr::millis(10),
            seed: 1,
            policy: PolicyKind::RoundRobin,
            reps: 1,
            workers: 2,
            mode: "parallel",
            cells: Vec::new(),
            scaling: vec![ScalingPoint {
                workers: 1,
                wall_secs: 1.0,
                speedup: 1.0,
            }],
            serial_wall_secs: 1.0,
            parallel_wall_secs: 1.0,
            parallel_speedup: 1.0,
            total_events: 0,
            aggregate_events_per_sec: 0.0,
        };
        let j = report.to_json();
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("threadstudy-bench-v3")
        );
        assert_eq!(j.get("mode").and_then(Json::as_str), Some("parallel"));
        assert!(j.get("scaling").is_some());
    }
}
