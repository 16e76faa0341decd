//! Wall-clock performance harness behind `repro bench`.
//!
//! Where the rest of this crate measures *virtual-time* rates (the
//! paper's tables), this module measures how fast the simulator itself
//! chews through its benchmark matrix on the host: wall time per cell
//! and simulated events per second, one cell at a time on the calling
//! thread. The numbers land in `BENCH_threadstudy.json` at the repo
//! root, which CI uses as a regression baseline.

use std::time::Instant;

use pcr::{PolicyKind, SimDuration};
use trace::Json;
use workloads::{run_benchmark_policy, Benchmark, System};

use crate::executor::Reporter;
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

/// A full perf-harness run: every cell timed `reps` times serially.
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
    /// Per-cell measurements, in table order.
    pub cells: Vec<CellPerf>,
    /// Median wall seconds for the whole matrix, one cell at a time.
    pub serial_wall_secs: f64,
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

/// Runs the harness: `reps` passes over the matrix, each cell timed on
/// its own.
///
/// # Panics
///
/// Panics if a world deadlocks, or if a cell's event volume changes
/// between reps (a determinism bug).
pub fn measure(window: SimDuration, seed: u64, reps: u32, policy: PolicyKind) -> PerfReport {
    let reps = reps.max(1);
    let cells = matrix();
    let reporter = Reporter::new();
    let mut cell_walls: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut serial_walls: Vec<f64> = Vec::new();
    let mut volumes: Vec<u64> = vec![0; cells.len()];
    let mut allocs: Vec<pcr::AllocCounters> = vec![Default::default(); cells.len()];

    for rep in 0..reps {
        let t0 = Instant::now();
        for (i, &(sys, b)) in cells.iter().enumerate() {
            reporter.line(&format!(
                "  bench rep {}/{reps}: {} / {b:?} ...",
                rep + 1,
                sys.name()
            ));
            let c0 = Instant::now();
            let r = run_benchmark_policy(sys, b, window, seed, policy);
            cell_walls[i].push(c0.elapsed().as_secs_f64());
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
        serial_walls.push(t0.elapsed().as_secs_f64());
    }
    let serial_wall_secs = median(&mut serial_walls);

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

    let total_events: u64 = volumes.iter().sum();
    PerfReport {
        window,
        seed,
        policy,
        reps,
        cells: cells_out,
        serial_wall_secs,
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
        Json::obj([
            ("schema", Json::from("threadstudy-bench-v4")),
            ("window_us", Json::from(self.window.as_micros())),
            ("seed", Json::from(format!("{:#x}", self.seed))),
            ("policy", Json::from(self.policy.as_str())),
            ("reps", Json::from(self.reps)),
            ("serial_wall_secs", Json::from(self.serial_wall_secs)),
            ("total_events", Json::from(self.total_events)),
            (
                "aggregate_events_per_sec",
                Json::from(self.aggregate_events_per_sec),
            ),
            ("cells", Json::arr(cells)),
        ])
    }

    /// A human-readable summary for stdout.
    pub fn text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Perf harness: {} cells, window {}, seed {:#x}, policy {}, median of {} reps",
            self.cells.len(),
            self.window,
            self.seed,
            self.policy,
            self.reps
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
        let _ = writeln!(
            out,
            "aggregate: {} events in {:.3}s = {:.0} events/sec",
            self.total_events, self.serial_wall_secs, self.aggregate_events_per_sec
        );
        out
    }
}

/// `aggregate_events_per_sec`, the one number `repro bench --baseline`
/// compares, from a previously written report (v2, v3 or v4: the key
/// has not moved).
pub fn baseline_events_per_sec(report: &Json) -> Result<f64, String> {
    report.f64_at("aggregate_events_per_sec")
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

    fn report(aggregate_events_per_sec: f64) -> PerfReport {
        PerfReport {
            window: pcr::millis(10),
            seed: 0xCEDA_2026,
            policy: PolicyKind::RoundRobin,
            reps: 1,
            cells: Vec::new(),
            serial_wall_secs: 2.0,
            total_events: 1000,
            aggregate_events_per_sec,
        }
    }

    #[test]
    fn baseline_extraction_roundtrips() {
        let read = |text: &str| baseline_events_per_sec(&Json::parse(text).unwrap());
        let json = report(500.0).to_json();
        for text in [json.pretty(), json.to_string()] {
            assert_eq!(read(&text), Ok(500.0));
        }
        // A v2 file (per-cell profiles, steals) carries the same scalar,
        // and so does the committed baseline, whatever schema it has.
        let v2 = r#"{"schema":"threadstudy-bench-v2","aggregate_events_per_sec":79213.5,
            "cells":[{"profile":{}}]}"#;
        assert_eq!(read(v2), Ok(79213.5));
        let committed = include_str!("../../../BENCH_threadstudy.json");
        assert!(read(committed).is_ok_and(|v| v > 0.0));
        let err = read("{}").unwrap_err();
        assert!(err.contains("aggregate_events_per_sec"), "{err}");
    }

    #[test]
    fn report_carries_schema_v4_and_only_its_fields() {
        let Json::Obj(fields) = report(0.0).to_json() else {
            panic!("a report is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema",
                "window_us",
                "seed",
                "policy",
                "reps",
                "serial_wall_secs",
                "total_events",
                "aggregate_events_per_sec",
                "cells"
            ]
        );
        assert_eq!(fields[0].1.as_str(), Some("threadstudy-bench-v4"));
    }
}
