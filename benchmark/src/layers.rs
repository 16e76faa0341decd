//! The per-layer ledger: each layer's unit cost, timed from outside in a
//! microworld that does nothing else, then multiplied by how often a
//! traced pass of each workload used the layer.
//!
//! Subtracting sinks and monitors from a running cell was tried first
//! and is below the noise of this box; calls timed in isolation are not.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use pcr::{
    micros, millis, secs, ChaosConfig, PolicyKind, Priority, RunLimit, Sim, SimConfig, SimDuration,
    SimTime, SplitMix64, Wheel,
};
use serverd::traffic::default_mix;
use serverd::{
    ClientPopulation, CoDel, CodelSpec, Completion, LatencyHistogram, LoadShape, Outcome,
    RetryPolicy, TokenBucket,
};
use workloads::{Benchmark, System};

use crate::host;
use crate::workload::{LedgerInputs, DEFAULT_SEED};

type Metrics = BTreeMap<String, f64>;

/// Timings a kernel-bound microworld takes; the fastest is reported.
/// The host only ever slows a context switch down, in bursts, and one
/// burst inside a single timing puts a ledger fraction above 1.
const TIMINGS: u64 = 5;

/// The fastest of [`TIMINGS`] calls of `timing`, which returns seconds.
fn floor_s(mut timing: impl FnMut() -> f64) -> f64 {
    (0..TIMINGS).map(|_| timing()).fold(f64::INFINITY, f64::min)
}

/// Seconds `f` takes.
fn time_s(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Seconds `sim` takes to run until every thread has exited.
fn run_to_completion(sim: &mut Sim) -> f64 {
    time_s(|| {
        sim.run(RunLimit::ToCompletion);
    })
}

/// Runs a one-thread world to completion and returns the seconds it took
/// with the finished simulator.
fn run_one_thread(body: impl FnOnce(&pcr::ThreadCtx) + Send + 'static) -> (f64, Sim) {
    let mut sim = Sim::new(SimConfig::default());
    let _ = sim.fork_root("probe", Priority::DEFAULT, body);
    (run_to_completion(&mut sim), sim)
}

/// `pcr::rendezvous`: the baton itself, thread creation, and what a
/// whole world costs to build and tear down.
fn rendezvous(m: &mut Metrics, div: u64) {
    let n = 20_000 / div;
    let s = floor_s(|| run_one_thread(move |ctx| (0..n).for_each(|_| ctx.yield_now())).0);
    m.insert("pcr.rendezvous.handoff_ns".into(), s * 1e9 / n as f64);

    let n = 1_000 / div;
    let mut alloc = pcr::AllocCounters::default();
    let s = floor_s(|| {
        let (s, sim) = run_one_thread(move |ctx| {
            for _ in 0..n {
                let child = ctx.fork("child", |_| ()).expect("fork");
                ctx.join(child).expect("join");
            }
        });
        alloc = sim.alloc_counters();
        s
    });
    m.insert("pcr.rendezvous.fork_join_us".into(), s * 1e6 / n as f64);
    m.insert(
        "pcr.rendezvous.os_thread_spawns".into(),
        alloc.os_thread_spawns as f64,
    );
    m.insert(
        "pcr.rendezvous.os_thread_reuses".into(),
        alloc.os_thread_reuses as f64,
    );

    let s = floor_s(|| time_s(|| drop(build_keyboard_world())));
    m.insert("pcr.rendezvous.world_build_ms".into(), s * 1e3);
}

fn build_keyboard_world() -> Sim {
    workloads::runner::build(System::Cedar, Benchmark::Keyboard, DEFAULT_SEED)
}

/// `pcr::sched`: the Mesa primitives, each in the smallest world that
/// exercises it.
fn primitives(m: &mut Metrics, div: u64) {
    let n = 10_000 / div;
    let s = floor_s(|| {
        let mut sim = Sim::new(SimConfig::default());
        let monitor = sim.monitor("m", 0u64);
        let _ = sim.fork_root("probe", Priority::DEFAULT, move |ctx| {
            for _ in 0..n {
                ctx.enter(&monitor).with_mut(|v| *v += 1);
            }
        });
        run_to_completion(&mut sim)
    });
    m.insert("pcr.sched.monitor_pair_ns".into(), s * 1e9 / n as f64);

    let n = 4_000 / div;
    let s = floor_s(|| {
        let mut sim = Sim::new(SimConfig::default());
        let monitor = sim.monitor("m", 0u64);
        let cv = sim.condition(&monitor, "cv", Some(millis(50)));
        for name in ["ping", "pong"] {
            let (monitor, cv) = (monitor.clone(), cv.clone());
            let _ = sim.fork_root(name, Priority::DEFAULT, move |ctx| {
                let mut g = ctx.enter(&monitor);
                for _ in 0..n {
                    g.notify(&cv);
                    let _ = g.wait(&cv);
                }
                g.notify(&cv);
            });
        }
        run_to_completion(&mut sim)
    });
    m.insert("pcr.sched.notify_wait_ns".into(), s * 1e9 / (2 * n) as f64);

    let s = floor_s(|| {
        let mut sim = Sim::new(SimConfig::default());
        let monitor = sim.monitor("m", ());
        let cv = sim.condition(&monitor, "cv", Some(millis(50)));
        let _ = sim.fork_root("probe", Priority::DEFAULT, move |ctx| {
            let mut g = ctx.enter(&monitor);
            for _ in 0..n {
                let _ = g.wait(&cv);
            }
        });
        run_to_completion(&mut sim)
    });
    m.insert("pcr.sched.timeout_wait_ns".into(), s * 1e9 / n as f64);
}

/// `pcr::sched::policy`: eight hogs that never call back into the
/// runtime, timesliced on a short quantum, so a switch is the policy's
/// decision plus a quantum timer and no baton. `PolicyCtx` is private to
/// `pcr`; this is the only outside view of it.
fn policies(m: &mut Metrics, div: u64) {
    for (name, kind) in [
        ("rr", PolicyKind::RoundRobin),
        ("cfs", PolicyKind::Cfs),
        ("lottery", PolicyKind::Lottery),
        ("mlfq", PolicyKind::Mlfq),
    ] {
        let cfg = SimConfig::default()
            .with_policy(kind)
            .with_quantum(micros(200));
        let mut sim = Sim::new(cfg);
        for i in 0..8 {
            let _ = sim.fork_root(&format!("hog{i}"), Priority::DEFAULT, |ctx| {
                ctx.work(secs(86_400))
            });
        }
        // Let every hog make its one `work` call before timing.
        sim.run(RunLimit::For(millis(10)));
        let before = sim.stats().switches;
        let s = time_s(|| {
            sim.run(RunLimit::For(millis(20_000 / div)));
        });
        let switches = (sim.stats().switches - before).max(1);
        m.insert(
            format!("pcr.sched.policy.switch_ns.{name}"),
            s * 1e9 / switches as f64,
        );
    }
}

/// `pcr::wheel`: steady arm-and-fire, and the arm-then-cancel of serve's
/// per-request deadline tokens.
fn wheel(m: &mut Metrics, div: u64) {
    let n = 400_000 / div;
    let mut rng = SplitMix64::new(0x7133_D00D);
    let mut w: Wheel<u32> = Wheel::new();
    let mut now = 0u64;
    for _ in 0..256 {
        w.schedule(SimTime::from_micros(1 + rng.next_below(100_000)), 0);
    }
    let s = time_s(|| {
        for _ in 0..n {
            let due = w.next_deadline().expect("256 stay pending");
            black_box(w.pop_due(due));
            now = due.as_micros();
            w.schedule(SimTime::from_micros(now + 1 + rng.next_below(100_000)), 0);
        }
    });
    m.insert("pcr.wheel.arm_fire_ns".into(), s * 1e9 / n as f64);

    let mut w: Wheel<u32> = Wheel::new();
    for _ in 0..100_000 / div {
        w.schedule(SimTime::from_micros(1 + rng.next_below(10_000_000)), 0);
    }
    let s = time_s(|| {
        for _ in 0..n {
            let token = w.schedule(SimTime::from_micros(1 + rng.next_below(10_000_000)), 0);
            black_box(w.cancel(token));
        }
    });
    m.insert("pcr.wheel.arm_cancel_ns".into(), s * 1e9 / n as f64);
}

/// The watchers the fuzzer adds to every trial.
fn watchers(m: &mut Metrics, div: u64) {
    let mut sim = build_keyboard_world();
    sim.run(RunLimit::For(secs(2)));
    let n = (400 / div).max(1);
    let s = time_s(|| {
        for _ in 0..n {
            black_box(sim.wait_for_graph());
        }
    });
    drop(sim);
    m.insert("pcr.waitgraph.snapshot_us".into(), s * 1e6 / n as f64);

    // Host seconds per simulated event with the chaos preset injecting
    // and the hazard monitor watching, against the clean cell.
    let cost = |chaos: &ChaosConfig| {
        floor_s(|| {
            let mut events = 0;
            let s = time_s(|| {
                events = workloads::run_benchmark_chaos(
                    System::Cedar,
                    Benchmark::Keyboard,
                    secs(1),
                    DEFAULT_SEED,
                    chaos.clone(),
                )
                .event_volume;
            });
            s / events as f64
        })
    };
    m.insert(
        "pcr.chaos.cell_slowdown".into(),
        cost(&workloads::chaos_preset()) / cost(&ChaosConfig::none()),
    );
}

/// `serverd`, piece by piece, with no simulated thread anywhere: the
/// fleet driven straight through its wheel with every request painted at
/// once, then the per-request controllers.
fn serverd_parts(m: &mut Metrics, div: u64) {
    let sessions = (100_000 / div) as u32;
    let window = secs(u64::from(sessions).div_ceil(300).max(20));
    let rss_before = host::rss_bytes();
    let mut fleet = None;
    let s = time_s(|| {
        fleet = Some(ClientPopulation::new(
            &default_mix(),
            &LoadShape::reference(),
            sessions,
            window,
            RetryPolicy::default(),
            DEFAULT_SEED,
        ));
    });
    let mut fleet = fleet.expect("just built");
    m.insert("serverd.clients.build_ms".into(), s * 1e3);
    m.insert(
        "serverd.clients.bytes_per_session".into(),
        host::rss_bytes().saturating_sub(rss_before) as f64 / f64::from(sessions),
    );
    let s = time_s(|| {
        while let Some(now) = fleet.next_wakeup() {
            for sub in fleet.poll(now) {
                let painted = Completion {
                    rid: sub.rid,
                    outcome: Outcome::Painted,
                };
                fleet.on_completion(now, painted);
            }
        }
    });
    let offered = fleet.counters.offered.max(1);
    m.insert(
        "serverd.clients.request_ns".into(),
        s * 1e9 / offered as f64,
    );

    let n = 1_000_000 / div;
    let mut rng = SplitMix64::new(DEFAULT_SEED);
    let mut bucket = TokenBucket::new(1_000.0, 100.0);
    let s = time_s(|| {
        for i in 0..n {
            black_box(bucket.admit(SimTime::from_micros(i * 700)));
        }
    });
    m.insert("serverd.admission.admit_ns".into(), s * 1e9 / n as f64);

    let mut codel = CoDel::new(CodelSpec::default());
    let sojourns: Vec<SimDuration> = (0..n).map(|_| micros(rng.next_below(12_000))).collect();
    let s = time_s(|| {
        for (i, sojourn) in sojourns.iter().enumerate() {
            black_box(codel.on_dequeue(SimTime::from_micros(i as u64 * 700), *sojourn));
        }
    });
    m.insert("serverd.codel.dequeue_ns".into(), s * 1e9 / n as f64);

    // Echo-shaped latencies: a 3 ms body with an exponential tail.
    let mut samples: Vec<u64> = (0..n).map(|_| 500 + rng.next_exp(3_000.0) as u64).collect();
    let mut histogram = LatencyHistogram::new();
    let s = time_s(|| {
        for us in &samples {
            histogram.record(micros(*us));
        }
    });
    m.insert("serverd.metrics.record_ns".into(), s * 1e9 / n as f64);
    samples.sort_unstable();
    let exact = samples[(samples.len() * 99).div_ceil(100) - 1] as f64;
    let bucketed = histogram.quantile_us(0.99).expect("samples recorded") as f64;
    m.insert(
        "serverd.metrics.p99_rel_err".into(),
        (bucketed - exact).abs() / exact,
    );
}

/// Every microworld. `micro_divisor` shrinks the iteration counts for
/// `--smoke`.
pub fn microworlds(micro_divisor: u64) -> Metrics {
    let mut m = Metrics::new();
    rendezvous(&mut m, micro_divisor);
    primitives(&mut m, micro_divisor);
    policies(&mut m, micro_divisor);
    wheel(&mut m, micro_divisor);
    watchers(&mut m, micro_divisor);
    serverd_parts(&mut m, micro_divisor);
    m
}

/// Adds `ledger.<workload>.*`: the share of a traced pass's wall time
/// that the operation counts times the unit costs in `m` account for,
/// and the share the baton alone accounts for.
pub fn attribute(m: &mut Metrics, workload: &str, inputs: &LedgerInputs) {
    let unit = |name: &str| m[name];
    let handoff_s = inputs.handoffs as f64 * unit("pcr.rendezvous.handoff_ns") / 1e9;
    let attributed_s = handoff_s
        + inputs.switches as f64 * unit("pcr.sched.policy.switch_ns.rr") / 1e9
        + inputs.timer_ops as f64 * unit("pcr.wheel.arm_fire_ns") / 1e9
        + inputs.sink_events as f64 * unit("trace.collector.record_ns") / 1e9
        + inputs.worlds as f64 * unit("pcr.rendezvous.world_build_ms") / 1e3
        + inputs.snapshots as f64 * unit("pcr.waitgraph.snapshot_us") / 1e6;
    m.insert(
        format!("ledger.{workload}.attributed_frac"),
        attributed_s / inputs.wall_s,
    );
    m.insert(
        format!("ledger.{workload}.handoff_frac"),
        handoff_s / inputs.wall_s,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ledger_is_counts_times_unit_costs_over_wall() {
        let mut m = Metrics::new();
        for (name, v) in [
            ("pcr.rendezvous.handoff_ns", 5_000.0),
            ("pcr.sched.policy.switch_ns.rr", 1_000.0),
            ("pcr.wheel.arm_fire_ns", 100.0),
            ("trace.collector.record_ns", 200.0),
            ("pcr.rendezvous.world_build_ms", 2.0),
            ("pcr.waitgraph.snapshot_us", 50.0),
        ] {
            m.insert(name.to_string(), v);
        }
        let inputs = LedgerInputs {
            wall_s: 1.0,
            handoffs: 100_000,   // 0.5 s
            switches: 50_000,    // 0.05 s
            timer_ops: 100_000,  // 0.01 s
            sink_events: 50_000, // 0.01 s
            worlds: 10,          // 0.02 s
            snapshots: 200,      // 0.01 s
        };
        attribute(&mut m, "matrix", &inputs);
        assert!((m["ledger.matrix.handoff_frac"] - 0.5).abs() < 1e-9);
        assert!((m["ledger.matrix.attributed_frac"] - 0.6).abs() < 1e-9);
    }
}
