//! End-to-end tests of the resilience harness: the fuzzer finds the
//! seeded failures on a small budget, the shrinker minimizes their
//! schedules while preserving the failure signature (checked as a
//! property over several seeds), and the supervisor recovers worlds
//! that wedge the unsupervised run.

use pcr::{millis, secs, Priority, RunLimit, Sim, SimConfig, SimDuration};
use resilience::{
    cause, fuzz, guided_fuzz, judge, ladder, observe, replay, shrink, supervise,
    supervise_benchmark, unsupervised_wedges, Cause, FuzzConfig, Intensity, ShrinkConfig,
    StoredCase, SupervisorConfig, TrialSpec, TrialWorld, Verdict,
};
use workloads::Benchmark;
use workloads::System;

fn no_progress(_: &str) {}

/// The original two-cell grid the seeded-failure tests were written
/// against (the default grid now spans the whole matrix).
fn seeded_cells() -> Vec<TrialWorld> {
    vec![
        cell(System::Cedar, Benchmark::Keyboard),
        cell(System::Gvx, Benchmark::Scroll),
    ]
}

fn cell(system: System, benchmark: Benchmark) -> TrialWorld {
    TrialWorld::Cell { system, benchmark }
}

/// The six-second trial of `world` at `seed` the seeded-failure tests
/// run, under `rung`'s thread cap.
fn trial(world: TrialWorld, seed: u64, rung: &Intensity) -> TrialSpec {
    TrialSpec {
        world,
        seed,
        window: secs(6),
        slice: millis(250),
        wedge_threshold: millis(1500),
        max_threads: rung.max_threads,
        policy: pcr::PolicyKind::RoundRobin,
    }
}

/// Runs `rung` of `world`'s ladder at `seed`: the stored case, if it fails.
fn case_at(world: TrialWorld, rung: &Intensity, seed: u64) -> Option<StoredCase> {
    let spec = trial(world, seed, rung);
    let obs = observe(&spec, rung.chaos.clone());
    Some(StoredCase {
        signature: obs.signature()?,
        spec,
        intensity: rung.name.to_string(),
        schedule: obs.schedule,
    })
}

/// Runs the guaranteed-failure rung of `system`'s ladder on one cell and
/// returns the stored case.
fn seeded_case(system: System, benchmark: Benchmark, seed: u64) -> StoredCase {
    let world = cell(system, benchmark);
    let rung = &ladder(world)[1];
    case_at(world, rung, seed)
        .unwrap_or_else(|| panic!("{} rung {} did not fail", system.name(), rung.name))
}

/// The rung of `world`'s ladder that `repro chaos --recover` loads it
/// with, and the spec it runs under.
fn recover_load(world: TrialWorld, rung: &str) -> (TrialSpec, Intensity) {
    let rung = ladder(world)
        .into_iter()
        .find(|r| r.name == rung)
        .expect("a rung of the ladder");
    (trial(world, 0xC0FFEE, &rung), rung)
}

#[test]
fn fuzz_small_budget_finds_the_seeded_failures() {
    // Budget 4 covers both cells at rungs 0 (preset, tolerated) and 1
    // (the guaranteed-failure rungs).
    let cfg = FuzzConfig {
        budget: 4,
        cells: seeded_cells(),
        ..FuzzConfig::default()
    };
    let outcome = fuzz(&cfg, no_progress);
    assert_eq!(outcome.trials, 4);
    assert!(
        outcome.failures >= 2,
        "expected both seeded rungs to fail, got {} failure(s)",
        outcome.failures
    );
    let sigs: Vec<&str> = outcome
        .cases
        .iter()
        .map(|c| c.case.signature.as_str())
        .collect();
    assert!(
        sigs.iter().any(|s| s.starts_with("wedge:")),
        "no wedge signature in {sigs:?}"
    );
    let cedar = outcome
        .cases
        .iter()
        .find(|c| c.case.spec.world == cell(System::Cedar, Benchmark::Keyboard))
        .expect("no Cedar failure");
    assert_eq!(cedar.case.intensity, "fork-cap");
    assert_eq!(cause(&cedar.case), Cause::ForkCap);
    assert!(
        cedar.case.signature.contains("fork"),
        "fork-cap signature should name a fork wait: {}",
        cedar.case.signature
    );
    let gvx = outcome
        .cases
        .iter()
        .find(|c| c.case.spec.world == cell(System::Gvx, Benchmark::Scroll))
        .expect("no GVX failure");
    assert_eq!(gvx.case.intensity, "stall-gated");
    assert_eq!(gvx.case.schedule.stalls.len(), 1);
    assert_eq!(cause(&gvx.case), Cause::Injected(vec!["stall"]));
}

#[test]
fn an_injected_fault_is_named_as_the_cause() {
    for (benchmark, rung, want) in [
        (Benchmark::Preview, "pct", "priority_change"),
        (Benchmark::Idle, "fork-storm", "fork_fail"),
    ] {
        let world = cell(System::Cedar, benchmark);
        let rung = ladder(world).into_iter().find(|r| r.name == rung).unwrap();
        let case = (0..32).find_map(|seed| case_at(world, &rung, seed));
        assert_eq!(cause(&case.unwrap()), Cause::Injected(vec![want]));
    }
}

#[test]
fn fuzz_is_deterministic() {
    let cfg = FuzzConfig {
        budget: 4,
        cells: seeded_cells(),
        ..FuzzConfig::default()
    };
    let a = fuzz(&cfg, no_progress);
    let b = fuzz(&cfg, no_progress);
    assert_eq!(a.failures, b.failures);
    let sig = |o: &resilience::FuzzOutcome| {
        o.cases
            .iter()
            .map(|c| (c.case.signature.clone(), c.count))
            .collect::<Vec<_>>()
    };
    assert_eq!(sig(&a), sig(&b));
}

#[test]
fn stored_case_replays_to_its_signature_from_disk() {
    let case = seeded_case(System::Cedar, Benchmark::Keyboard, 0x5EED);
    let dir = std::env::temp_dir().join("resilience-case-roundtrip");
    let path = case.save(&dir).expect("save");
    let loaded = StoredCase::load(&path).expect("load");
    let obs = replay(&loaded);
    assert_eq!(obs.signature().as_deref(), Some(case.signature.as_str()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shrink_reduces_fork_cap_schedule_to_a_quarter_or_less() {
    let case = seeded_case(System::Cedar, Benchmark::Keyboard, 0x5EED);
    assert!(
        case.schedule.decisions.len() >= 4,
        "preset chaos over the pre-wedge window should record several decisions, got {}",
        case.schedule.decisions.len()
    );
    let report = shrink(&case, &ShrinkConfig { max_replays: 40 }, no_progress).expect("shrink");
    // The fork-cap wedge is environmental (the thread-table cap), so
    // the minimal schedule is empty — far below the 25% acceptance bar.
    assert!(
        report.case.schedule.decisions.len() * 4 <= case.schedule.decisions.len(),
        "shrunk {} of {} decisions",
        report.case.schedule.decisions.len(),
        case.schedule.decisions.len()
    );
    let obs = replay(&report.case);
    assert_eq!(obs.signature().as_deref(), Some(case.signature.as_str()));
}

#[test]
fn shrink_keeps_the_essential_stall() {
    let case = seeded_case(System::Gvx, Benchmark::Scroll, 0x5EED);
    let report = shrink(&case, &ShrinkConfig { max_replays: 40 }, no_progress).expect("shrink");
    assert_eq!(
        report.case.schedule.stalls.len(),
        1,
        "the gated stall is the failure's cause and must survive shrinking"
    );
    assert!(report.case.schedule.decisions.len() * 4 <= case.schedule.decisions.len());
}

#[test]
fn property_shrunk_schedules_preserve_the_failure_signature() {
    // The satellite property, hand-rolled over fixed seeds: for every
    // failing case the minimized schedule replays to the original
    // signature.
    for case_seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        let case = seeded_case(System::Gvx, Benchmark::Scroll, case_seed);
        let report = shrink(&case, &ShrinkConfig { max_replays: 25 }, no_progress)
            .unwrap_or_else(|e| panic!("seed {case_seed:x}: {e}"));
        let obs = replay(&report.case);
        assert_eq!(
            obs.signature().as_deref(),
            Some(case.signature.as_str()),
            "seed {case_seed:x}: minimized schedule lost the signature"
        );
        assert!(
            report.case.schedule.decisions.len() <= case.schedule.decisions.len(),
            "seed {case_seed:x}: shrink grew the schedule"
        );
    }
}

#[test]
fn shrink_rejects_a_stale_case() {
    let mut case = seeded_case(System::Gvx, Benchmark::Scroll, 0x5EED);
    // Remove the stall that causes the failure: the stored signature no
    // longer reproduces.
    case.schedule.stalls.clear();
    let err = shrink(&case, &ShrinkConfig { max_replays: 5 }, no_progress).unwrap_err();
    assert!(err.contains("does not reproduce"), "{err}");
}

#[test]
fn supervisor_recovers_cedar_from_a_fork_outage() {
    let (spec, rung) = recover_load(cell(System::Cedar, Benchmark::Keyboard), "fork-cap");
    let cfg = SupervisorConfig::for_window(secs(6));
    assert!(
        unsupervised_wedges(spec.build(rung.chaos.clone()), &cfg),
        "the fault load must wedge the unsupervised run"
    );
    let sup = supervise_benchmark(&spec, rung.chaos, &cfg);
    assert!(!sup.supervision.gave_up);
    assert!(
        sup.supervision
            .actions
            .iter()
            .any(|a| a.kind.tag() == "fail-pending-forks"),
        "expected the §5.4 lever in {:?}",
        sup.supervision.actions
    );
    let degradation = sup.degradation;
    assert!(
        degradation > 0.0 && degradation <= 1.0,
        "degradation = {degradation}"
    );
}

#[test]
fn supervisor_rejuvenates_gvx_out_of_a_gated_stall() {
    let (spec, rung) = recover_load(cell(System::Gvx, Benchmark::Scroll), "stall-gated");
    let cfg = SupervisorConfig::for_window(secs(6));
    assert!(
        unsupervised_wedges(spec.build(rung.chaos.clone()), &cfg),
        "the gated stall must wedge the unsupervised run"
    );
    let sup = supervise_benchmark(&spec, rung.chaos, &cfg);
    assert!(!sup.supervision.gave_up);
    assert!(
        sup.supervision
            .actions
            .iter()
            .any(|a| a.kind.tag() == "rejuvenate"),
        "expected a rejuvenation in {:?}",
        sup.supervision.actions
    );
    assert!(
        sup.supervision.healthy_at_end,
        "one-shot stall recovered: the world should finish healthy"
    );
    let degradation = sup.degradation;
    assert!(degradation > 0.0, "degradation = {degradation}");
}

/// Two threads that take monitors A and B and exit: in opposite orders
/// (AB-BA) when `abba`, which deadlocks them 5 ms in.
fn two_lockers(abba: bool) -> Sim {
    let mut sim = Sim::new(SimConfig::default());
    let a = sim.monitor("A", ());
    let b = sim.monitor("B", ());
    let (a1, b1) = (a.clone(), b.clone());
    let _ = sim.fork_root("left", Priority::of(4), move |ctx| {
        let _ga = ctx.enter(&a1);
        ctx.sleep(millis(5)); // threadlint: allow(blocking-call-in-monitor)
        let _gb = ctx.enter(&b1);
        ctx.work(millis(1));
    });
    let _ = sim.fork_root("right", Priority::of(4), move |ctx| {
        if abba {
            let _gb = ctx.enter(&b);
            ctx.sleep(millis(5)); // threadlint: allow(blocking-call-in-monitor)
                                  // threadlint: allow(lock-order-cycle) — the AB-BA cycle is the point.
            let _ga = ctx.enter(&a);
        } else {
            let _ga = ctx.enter(&a);
            ctx.sleep(millis(5)); // threadlint: allow(blocking-call-in-monitor)
                                  // threadlint: allow(lock-order-cycle)
            let _gb = ctx.enter(&b);
        }
        ctx.work(millis(1));
    });
    sim
}

/// A `holder` that computes for `hold` inside monitor M while a
/// `waiter` queues on M.
fn holder_and_waiter(hold: SimDuration) -> Sim {
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.monitor("M", ());
    let m2 = m.clone();
    let _ = sim.fork_root("holder", Priority::of(4), move |ctx| {
        let _g = ctx.enter(&m2);
        ctx.work(hold);
    });
    let _ = sim.fork_root("waiter", Priority::of(4), move |ctx| {
        ctx.sleep(millis(1));
        let _g = ctx.enter(&m);
    });
    sim
}

/// Runs `build`'s world for a second and checks what [`judge`] makes of
/// it: `want` is the verdict and its threads.
fn judged(build: fn() -> Sim, want: &str) {
    let cfg = SupervisorConfig {
        wedge_threshold: millis(500),
        ..SupervisorConfig::for_window(secs(1))
    };
    let mut sim = build();
    let report = sim.run(RunLimit::For(cfg.window));
    let (verdict, mut names) = match judge(&sim, &report, Some(cfg.wedge_threshold)) {
        Verdict::Healthy => ("healthy", Vec::new()),
        Verdict::Panicked(names) => ("panicked", names),
        Verdict::Stuck {
            deadlock,
            graph,
            threads,
        } => {
            assert!(!deadlock || graph.wedged(cfg.wedge_threshold).is_empty());
            let names = threads.into_iter().map(|w| w.name).collect();
            (if deadlock { "deadlock" } else { "wedge" }, names)
        }
    };
    names.sort();
    assert_eq!(format!("{verdict} [{}]", names.join(", ")), want);
    // The unsupervised checks of `repro chaos --recover` — the Cedar, GVX
    // and §6.2 inversion cells alike — ask exactly this, so a panic
    // counts in every one of them.
    assert_eq!(
        unsupervised_wedges(build(), &cfg),
        verdict != "healthy",
        "{want}"
    );
}

#[test]
fn the_judge_gives_one_verdict_per_kind_of_failure() {
    judged(|| holder_and_waiter(millis(10)), "healthy []");
    judged(
        || {
            let mut sim = Sim::new(SimConfig::default());
            let _ = sim.fork_root("boom", Priority::of(4), |_| panic!("on purpose"));
            let _ = sim.fork_root("bystander", Priority::of(4), |ctx| ctx.sleep(millis(1)));
            sim
        },
        "panicked [boom]",
    );
    // Both parties have been blocked for no time when the clock stops, so
    // `wedged` is empty, and still the world has failed.
    judged(|| two_lockers(true), "deadlock [left, right]");
    // The holder computes on, so the clock moves: only the waiter, blocked
    // past the threshold, is stuck.
    judged(|| holder_and_waiter(secs(60)), "wedge [waiter]");
}

#[test]
fn supervisor_restarts_an_attempt_dependent_deadlock() {
    // Attempt 0 acquires two monitors in opposite orders (AB-BA) and
    // deadlocks; the rebuilt attempt uses one order and completes. The
    // restart rung is the only lever that helps here.
    let build = |attempt: u32| two_lockers(attempt == 0);
    let cfg = SupervisorConfig {
        window: secs(2),
        slice: millis(100),
        wedge_threshold: millis(500),
        max_restarts: 3,
        backoff: millis(100),
        grace_slices: 2,
    };
    let (sup, _sim) = supervise(build, &cfg);
    assert_eq!(sup.restarts, 1, "actions: {:?}", sup.actions);
    assert_eq!(sup.attempts, 2);
    assert!(!sup.gave_up);
    assert!(sup.healthy_at_end);
    assert_eq!(sup.actions.len(), 1);
    assert_eq!(sup.actions[0].kind.tag(), "restart");
    assert!(
        sup.actions[0].detail.contains("left") || sup.actions[0].detail.contains("right"),
        "restart detail should name the deadlocked parties: {:?}",
        sup.actions[0]
    );
}

#[test]
fn guided_fuzz_is_deterministic_and_covers_the_seeded_failures() {
    let cfg = FuzzConfig {
        budget: 12,
        cells: seeded_cells(),
        ..FuzzConfig::default()
    };
    let a = guided_fuzz(&cfg, no_progress);
    let b = guided_fuzz(&cfg, no_progress);
    let sig = |o: &resilience::GuidedOutcome| {
        o.cases
            .iter()
            .map(|c| (c.case.signature.clone(), c.count))
            .collect::<Vec<_>>()
    };
    assert_eq!(sig(&a), sig(&b), "guided sweep is not deterministic");
    assert!(
        a.cases.len() >= 2,
        "the interleaved grid trials should still reach both seeded rungs: {:?}",
        sig(&a)
    );
    // Byte-deterministic corpus ordering: sorted by signature.
    for w in a.cases.windows(2) {
        assert!(w[0].case.signature <= w[1].case.signature);
    }
    // Every corpus entry replays to its own signature, for a known cause.
    for found in &a.cases {
        assert_ne!(cause(&found.case), Cause::Unexplained);
        let obs = replay(&found.case);
        assert_eq!(
            obs.signature().as_deref(),
            Some(found.case.signature.as_str()),
            "guided case {} does not replay",
            found.case.signature
        );
    }
}

#[test]
fn fuzz_reaches_the_out_of_matrix_worlds() {
    let cfg = FuzzConfig {
        budget: 8,
        cells: vec![
            TrialWorld::MultiCore { cpus: 2 },
            TrialWorld::WeakMemory { max_delay_us: 200 },
        ],
        ..FuzzConfig::default()
    };
    let outcome = fuzz(&cfg, no_progress);
    assert!(
        outcome.cases.iter().any(
            |c| matches!(c.case.spec.world, TrialWorld::MultiCore { .. })
                && c.case.signature.starts_with("deadlock:")
                && cause(&c.case) == Cause::Seeded
        ),
        "no AB-BA deadlock out of the mp transfer mesh: {:?}",
        outcome
            .cases
            .iter()
            .map(|c| &c.case.signature)
            .collect::<Vec<_>>()
    );
    assert!(
        outcome.cases.iter().any(
            |c| matches!(c.case.spec.world, TrialWorld::WeakMemory { .. })
                && c.case.signature.contains("wm-reader(panic)")
                && cause(&c.case) == Cause::Seeded
        ),
        "no stale-publication panic out of the weak-memory race: {:?}",
        outcome
            .cases
            .iter()
            .map(|c| &c.case.signature)
            .collect::<Vec<_>>()
    );
}

#[test]
fn supervisor_boosts_a_monitor_inversion_instead_of_restarting() {
    // §6.2 shape: a low-priority holder is starved by a middle-priority
    // hog while a high-priority claimant waits on the monitor. No rung
    // below the inversion remedies helps (nothing is stalled, nothing is
    // fork-blocked), and a restart would just rebuild the same starvation.
    let build = |_attempt: u32| {
        let mut sim = Sim::new(SimConfig::default());
        let m = sim.monitor("shared", ());
        let m2 = m.clone();
        let _ = sim.fork_root("low-holder", Priority::of(2), move |ctx| {
            let _g = ctx.enter(&m2);
            // Short enough that, once boosted, the holder releases
            // within the supervisor's grace window.
            ctx.work(millis(150));
        });
        let _ = sim.fork_root("middle-hog", Priority::of(4), move |ctx| {
            ctx.sleep(millis(5));
            for _ in 0..100_000 {
                ctx.work(millis(10));
            }
        });
        let _ = sim.fork_root("high-claimant", Priority::of(6), move |ctx| {
            ctx.sleep(millis(20));
            let _g = ctx.enter(&m);
            ctx.work(millis(1));
        });
        sim
    };
    let cfg = SupervisorConfig {
        window: secs(2),
        slice: millis(100),
        wedge_threshold: millis(500),
        max_restarts: 3,
        backoff: millis(100),
        grace_slices: 2,
    };
    let (sup, _sim) = supervise(build, &cfg);
    assert_eq!(sup.restarts, 0, "actions: {:?}", sup.actions);
    assert!(
        sup.actions
            .iter()
            .any(|a| a.kind == resilience::RecoveryKind::PriorityBoost),
        "expected a priority boost in {:?}",
        sup.actions
    );
    assert!(
        sup.actions
            .iter()
            .find(|a| a.kind == resilience::RecoveryKind::PriorityBoost)
            .unwrap()
            .detail
            .contains("low-holder"),
        "boost should name the starved holder: {:?}",
        sup.actions
    );
    assert!(!sup.gave_up);
}
