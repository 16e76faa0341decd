//! Behavioral property tests for the pluggable scheduling policies.
//!
//! The default round-robin policy is pinned byte-for-byte by the bench
//! determinism goldens; these tests pin what the *alternative* policies
//! promise instead: CFS never starves an equal-weight competitor,
//! lottery CPU tracks ticket weights, and MLFQ demotes a spinner rather
//! than letting it starve a low-priority interactive thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pcr::{millis, secs, PolicyKind, Priority, RunLimit, Sim, SimConfig, SimDuration, SimStats};

/// Runs one eternal spinner per entry of `priorities` under `policy` on
/// `cpus` processors for `window` of virtual time and returns each
/// spinner's completed loop count (5ms of work per loop) plus the final
/// scheduler stats.
fn spinner_counts(
    policy: PolicyKind,
    cpus: usize,
    priorities: &[Priority],
    window: SimDuration,
) -> (Vec<u64>, SimStats) {
    let cfg = SimConfig::default()
        .with_seed(0x90_11C7)
        .with_policy(policy);
    let mut sim = Sim::with_cpus(cfg, cpus);
    let counters: Vec<Arc<AtomicU64>> = priorities
        .iter()
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    for (i, (&p, c)) in priorities.iter().zip(&counters).enumerate() {
        let c = Arc::clone(c);
        let _ = sim.fork_root(&format!("spin-{i}"), p, move |ctx| loop {
            ctx.work(millis(5));
            c.fetch_add(1, Ordering::Relaxed);
        });
    }
    sim.run(RunLimit::For(window));
    let counts = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    (counts, sim.stats().clone())
}

#[test]
fn cfs_shares_cpu_evenly_at_equal_priority() {
    let (counts, _) = spinner_counts(
        PolicyKind::Cfs,
        1,
        &[Priority::DEFAULT, Priority::DEFAULT, Priority::DEFAULT],
        secs(10),
    );
    let min = *counts.iter().min().unwrap();
    let max = *counts.iter().max().unwrap();
    assert!(min > 0, "a spinner starved under CFS: {counts:?}");
    assert!(
        max <= min * 2,
        "equal-weight spinners diverged more than 2x: {counts:?}"
    );
}

#[test]
fn lottery_cpu_tracks_ticket_weights() {
    // Weights double per level: priority 2 holds 2 tickets, priority 5
    // holds 16, so the expected CPU ratio is 8x. The draw is seeded, so
    // the observed ratio is deterministic; the wide band only has to
    // absorb binomial noise across ~600 quantum-length draws.
    let (counts, _) = spinner_counts(
        PolicyKind::Lottery,
        1,
        &[Priority::of(2), Priority::of(5)],
        secs(30),
    );
    let (low, high) = (counts[0], counts[1]);
    assert!(low > 0, "2-ticket spinner starved: {counts:?}");
    let ratio = high as f64 / low as f64;
    assert!(
        (2.0..32.0).contains(&ratio),
        "CPU ratio {ratio:.1} is not near the 8x ticket ratio: {counts:?}"
    );
}

#[test]
fn mlfq_demotes_the_spinner_instead_of_starving_the_pump() {
    // A priority-1 "pump" sleeps 50ms then works 1ms, forever — the
    // shape of the paper's low-priority screen painter. A priority-4
    // spinner never blocks. Under strict-priority round-robin the pump
    // never runs; under MLFQ the spinner burns through its quanta,
    // demotes to the bottom level, and the pump makes steady progress.
    fn pump_progress(policy: PolicyKind) -> u64 {
        let mut sim = Sim::new(
            SimConfig::default()
                .with_seed(0x90_11C7)
                .with_policy(policy),
        );
        let pumped = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&pumped);
        let _ = sim.fork_root("pump", Priority::MIN, move |ctx| loop {
            ctx.sleep(millis(50));
            ctx.work(millis(1));
            c.fetch_add(1, Ordering::Relaxed);
        });
        let _ = sim.fork_root("spinner", Priority::DEFAULT, |ctx| loop {
            ctx.work(millis(5));
        });
        sim.run(RunLimit::For(secs(10)));
        pumped.load(Ordering::Relaxed)
    }

    let rr = pump_progress(PolicyKind::RoundRobin);
    let mlfq = pump_progress(PolicyKind::Mlfq);
    assert_eq!(
        rr, 0,
        "strict priority should starve the pump behind the spinner"
    );
    assert!(
        mlfq >= 20,
        "MLFQ pump made only {mlfq} iterations in 10s against a demoted spinner"
    );
}

#[test]
fn every_policy_replays_identically_for_a_fixed_seed() {
    let prios = [Priority::of(2), Priority::DEFAULT, Priority::of(6)];
    for cpus in [1, 2] {
        for policy in PolicyKind::ALL {
            let (counts_a, stats_a) = spinner_counts(policy, cpus, &prios, secs(5));
            let (counts_b, stats_b) = spinner_counts(policy, cpus, &prios, secs(5));
            assert_eq!(counts_a, counts_b, "{policy}: progress diverged on replay");
            assert_eq!(
                format!("{stats_a:?}"),
                format!("{stats_b:?}"),
                "{policy} on {cpus}: stats diverged on replay"
            );
        }
    }
}

#[test]
fn the_policy_dispatches_on_two_cpus_too() {
    // Three spinners on two CPUs: strict priority starves the lowest for
    // good, a lottery gives every ticket holder a turn.
    let prios = [Priority::of(2), Priority::DEFAULT, Priority::of(6)];
    let (rr, _) = spinner_counts(PolicyKind::RoundRobin, 2, &prios, secs(5));
    let (lottery, _) = spinner_counts(PolicyKind::Lottery, 2, &prios, secs(5));
    // (The work that ends with the window is not counted: no reply yet.)
    assert_eq!(rr, [0, 999, 999]);
    assert!(lottery[0] > 0 && lottery != rr, "{lottery:?}");
}
