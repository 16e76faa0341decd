//! Structural invariants the paper reports, checked across the full
//! synthetic worlds, plus determinism and the join of the worlds'
//! modeled fork sites against the threads they create.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use threadstudy::paradigms::Paradigm;
use threadstudy::pcr::{millis, secs, SimDuration};
use threadstudy::workloads::inventory::TABLE4_COUNTS;
use threadstudy::workloads::{run_benchmark, runner, Benchmark, System};

#[test]
fn fork_generations_never_exceed_two() {
    // §3: "none of our benchmarks exhibited forking generations greater
    // than 2. That is, every transient thread was either the child or
    // grandchild of some worker or long-lived thread."
    for sys in [System::Cedar, System::Gvx] {
        for &b in Benchmark::suite(sys) {
            let r = run_benchmark(sys, b, secs(10), 7);
            assert!(
                r.max_generation <= 2,
                "{sys:?}/{b:?}: generation {} observed",
                r.max_generation
            );
        }
    }
}

#[test]
fn concurrent_threads_never_exceed_41() {
    // §3: "the maximum number of threads concurrently existing in the
    // system never exceeded 41."
    for sys in [System::Cedar, System::Gvx] {
        for &b in Benchmark::suite(sys) {
            let r = run_benchmark(sys, b, secs(10), 7);
            assert!(
                r.max_live_threads <= 41,
                "{sys:?}/{b:?}: {} live threads",
                r.max_live_threads
            );
        }
    }
}

#[test]
fn transient_lifetimes_are_well_under_a_second() {
    // §3: "an average lifetime for non-eternal threads that is well
    // under 1 second."
    let r = run_benchmark(System::Cedar, Benchmark::Format, secs(10), 7);
    let mean = r.mean_transient_lifetime.expect("transients existed");
    assert!(mean < secs(1), "mean transient lifetime {mean}");
}

#[test]
fn execution_intervals_are_bimodal_under_compute_load() {
    // §3: most intervals are 0-5ms, with a second peak at 45-50ms that
    // carries a large share of total CPU.
    let r = run_benchmark(System::Cedar, Benchmark::Compile, secs(10), 7);
    let h = &r.intervals;
    assert!(
        h.fraction_between(millis(0), millis(5)) > 0.5,
        "short intervals {:.2}",
        h.fraction_between(millis(0), millis(5))
    );
    let cpu_share = h.time_fraction_between(millis(44), millis(51));
    assert!(
        cpu_share > 0.2,
        "45-50ms intervals carry only {:.2} of CPU",
        cpu_share
    );
    let mode = h.mode_at_or_above(millis(10)).expect("second mode");
    assert!(
        (millis(40)..=millis(51)).contains(&mode),
        "second mode at {mode}"
    );
}

#[test]
fn benchmark_runs_are_deterministic() {
    let a = run_benchmark(System::Cedar, Benchmark::Keyboard, secs(5), 99);
    let b = run_benchmark(System::Cedar, Benchmark::Keyboard, secs(5), 99);
    assert_eq!(a.rates.switches_per_sec, b.rates.switches_per_sec);
    assert_eq!(a.rates.forks_per_sec, b.rates.forks_per_sec);
    assert_eq!(a.rates.ml_enters_per_sec, b.rates.ml_enters_per_sec);
    assert_eq!(a.rates.distinct_mls, b.rates.distinct_mls);
    assert_eq!(a.max_live_threads, b.max_live_threads);
}

#[test]
fn different_seeds_give_different_details() {
    let a = run_benchmark(System::Cedar, Benchmark::Keyboard, secs(5), 1);
    let b = run_benchmark(System::Cedar, Benchmark::Keyboard, secs(5), 2);
    // Arrival jitter differs; exact event counts should too.
    assert_ne!(
        (a.rates.switches_per_sec, a.rates.ml_enters_per_sec),
        (b.rates.switches_per_sec, b.rates.ml_enters_per_sec)
    );
}

/// The run-time join's seed and window: at `0x5EED_0001` over 10 s
/// every modeled site forks in some cell. Shorter windows miss a site
/// (seed 3 over 3 s never forks `Cedar.ScrollLeafFork`), which would
/// hide a modeled site with no fork behind it.
const JOIN_SEED: u64 = 0x5EED_0001;
const JOIN_WINDOW: SimDuration = secs(10);

/// Each system's join keys: the names its world declares it forks.
fn modeled(sys: System) -> Vec<String> {
    let sites = match sys {
        System::Cedar => threadstudy::workloads::cedar::modeled_sites(),
        System::Gvx => threadstudy::workloads::gvx::modeled_sites(),
    };
    sites.into_iter().map(|(name, _)| name).collect()
}

/// Every thread name the twelve cells create at the join's seed and
/// window, per system (the runtime's own `SystemDaemon` is machinery,
/// not an application fork site). Run once, read by both halves.
fn world_threads() -> &'static BTreeSet<(System, String)> {
    static THREADS: OnceLock<BTreeSet<(System, String)>> = OnceLock::new();
    THREADS.get_or_init(|| {
        let mut names = BTreeSet::new();
        for sys in [System::Cedar, System::Gvx] {
            for &b in Benchmark::suite(sys) {
                let mut sim = runner::build(sys, b, JOIN_SEED);
                sim.run(threadstudy::pcr::RunLimit::For(JOIN_WINDOW));
                for t in sim.threads_iter().filter(|t| t.name != "SystemDaemon") {
                    names.insert((sys, t.name.to_string()));
                }
            }
        }
        names
    })
}

#[test]
fn every_world_thread_names_a_modeled_census_site() {
    for (sys, name) in world_threads() {
        assert!(
            modeled(*sys).contains(name),
            "{sys:?}: thread '{name}' is not a modeled site"
        );
    }
}

#[test]
fn every_modeled_site_is_forked_by_some_cell() {
    for sys in [System::Cedar, System::Gvx] {
        for name in modeled(sys) {
            assert!(
                world_threads().contains(&(sys, name.clone())),
                "{sys:?}: modeled site '{name}' was never forked \
                 (seed {JOIN_SEED:#x}, {JOIN_WINDOW} window)"
            );
        }
    }
}

#[test]
fn census_matches_table4_exactly() {
    let row = |p: Paradigm| {
        let &(_, cedar, gvx) = TABLE4_COUNTS.iter().find(|r| r.0 == p).unwrap();
        (cedar, gvx)
    };
    let cedar: usize = TABLE4_COUNTS.iter().map(|r| r.1).sum();
    let gvx: usize = TABLE4_COUNTS.iter().map(|r| r.2).sum();
    assert_eq!((cedar, gvx), (348, 234));
    assert_eq!(row(Paradigm::DeferWork), (108, 77));
    assert_eq!(row(Paradigm::Sleeper).0, 67);
    assert_eq!(row(Paradigm::Unknown).1, 78);
}

#[test]
fn cedar_and_gvx_priority_profiles_differ_as_reported() {
    // §3: Cedar spreads long-lived threads over 1-4 and uses 7 (not 5);
    // GVX concentrates on 3 and uses 5 (not 7).
    let cedar = run_benchmark(System::Cedar, Benchmark::Keyboard, secs(10), 7);
    let gvx = run_benchmark(System::Gvx, Benchmark::Keyboard, secs(10), 7);
    let cpu = |r: &threadstudy::workloads::BenchResult, p: usize| r.cpu_by_priority[p - 1];
    // Cedar: levels 1..4 all see CPU; level 5 sees none; level 7 some.
    for p in 1..=4 {
        assert!(
            !cpu(&cedar, p).is_zero(),
            "Cedar priority {p} idle despite even spread"
        );
    }
    assert!(cpu(&cedar, 5).is_zero(), "Cedar must not use priority 5");
    assert!(!cpu(&cedar, 7).is_zero(), "Cedar uses 7 for interrupts");
    // GVX: 3 dominates; 7 unused; 5 used.
    assert!(cpu(&gvx, 7).is_zero(), "GVX must not use priority 7");
    assert!(!cpu(&gvx, 5).is_zero(), "GVX uses priority 5");
    let total: u64 = (1..=7).map(|p| cpu(&gvx, p).as_micros()).sum();
    assert!(
        cpu(&gvx, 3).as_micros() * 2 > total,
        "GVX priority 3 should dominate its CPU"
    );
}
