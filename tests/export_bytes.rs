//! Pins the exported bytes of recorded runs inside tier-1: the JSONL
//! and Chrome documents of Cedar/Keyboard, one virtual second, clean and
//! under the chaos preset (so instants and flows appear), clean under
//! each of the other three scheduling policies, and clean on two virtual
//! CPUs. The first two hashes were taken from the build before the
//! exporters stopped going through a `Json` tree, the rest from the
//! build before uncontended monitor calls and `work` were finished
//! without a kernel request; `benchmark/expected.json` pins the same
//! formats on other cells, but only when the benchmark runs. The serve
//! world's report JSON is pinned here too, on the reference cell and on
//! the two small scenario cells that drive admission, CoDel, the ladder
//! and the breaker.

use threadstudy::pcr::{
    millis, secs, ChaosConfig, PolicyKind, RunLimit, Sim, SimConfig, SystemDaemonConfig,
};
use threadstudy::serverd::{ServeScenario, ServeSpec};
use threadstudy::trace::{write_chrome, write_jsonl, Json, Recording};
use threadstudy::workloads::serve::run_report;
use threadstudy::workloads::{build_chaos_with, cedar, chaos_preset, Benchmark, System};

/// 64-bit FNV-1a, the hash `benchmark/` uses for its digests.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const SEED: u64 = 0x5EED_0015;

/// Cedar/Keyboard under `chaos` and `policy`.
fn keyboard(chaos: ChaosConfig, policy: PolicyKind) -> Sim {
    build_chaos_with(System::Cedar, Benchmark::Keyboard, SEED, chaos, |c| {
        c.with_policy(policy)
    })
}

/// Clean Cedar/Keyboard on two virtual CPUs, with the SystemDaemon
/// `build_chaos_with` gives a Cedar world.
fn keyboard_on_two_cpus() -> Sim {
    let daemon = SystemDaemonConfig {
        period: millis(100),
        slice: millis(5),
    };
    let cfg = SimConfig::default()
        .with_seed(SEED)
        .with_system_daemon(daemon);
    let mut sim = Sim::with_cpus(cfg, 2);
    cedar::install(&mut sim, Benchmark::Keyboard);
    sim
}

/// `sim` for one virtual second.
fn record(mut sim: Sim) -> Recording {
    let (report, rec) = Recording::run(&mut sim, RunLimit::For(secs(1)));
    assert!(!report.deadlocked());
    rec
}

/// Exports `sim`'s recorded second and compares the event count and the
/// two documents' hashes with `pinned`.
fn assert_pinned(name: &str, sim: Sim, pinned: (usize, u64, u64)) {
    let Recording { events, labels } = record(sim);
    let (mut jsonl, mut chrome) = (Vec::new(), Vec::new());
    let written = write_jsonl(&events, &mut jsonl).unwrap();
    write_chrome(&events, &labels, &mut chrome).unwrap();
    let got = (written, fnv1a(&jsonl), fnv1a(&chrome));
    assert_eq!(got, pinned, "{name}: {got:#x?}");
}

#[test]
fn clean_and_chaos_runs_export_the_pinned_bytes() {
    let pinned = [
        (
            ChaosConfig::none(),
            3101,
            0x1f31_93b8_886e_9cb0,
            0x96d5_fc1f_3866_f1ae,
        ),
        (
            chaos_preset(),
            3181,
            0xbd21_db47_6e10_702a,
            0xf29f_4774_6605_c448,
        ),
    ];
    for (chaos, events_pinned, jsonl_pinned, chrome_pinned) in pinned {
        let sim = keyboard(chaos, PolicyKind::RoundRobin);
        assert_pinned("rr", sim, (events_pinned, jsonl_pinned, chrome_pinned));
    }
}

/// The same clean second under each of the other policies, whose
/// preemption rules differ, and on two CPUs, where every call is served
/// by the multiprocessor run loop. MLFQ's bytes are round-robin's: in
/// its first seconds no Cedar/Keyboard thread runs out a quantum.
#[test]
fn every_policy_and_two_cpus_export_the_pinned_bytes() {
    let pinned = [
        (
            Some(PolicyKind::Cfs),
            3134,
            0xd093_0999_c5f7_c883,
            0x98e3_3bf1_8362_8a30,
        ),
        (
            Some(PolicyKind::Lottery),
            3095,
            0xc9a9_30ef_4830_e1f2,
            0x3860_261e_8e6d_2da7,
        ),
        (
            Some(PolicyKind::Mlfq),
            3101,
            0x1f31_93b8_886e_9cb0,
            0x96d5_fc1f_3866_f1ae,
        ),
        (None, 3106, 0x367a_febd_4189_9a5d, 0x1822_d707_4d72_01f9),
    ];
    for (policy, events_pinned, jsonl_pinned, chrome_pinned) in pinned {
        let (name, sim) = match policy {
            Some(policy) => (policy.as_str(), keyboard(ChaosConfig::none(), policy)),
            None => ("two cpus", keyboard_on_two_cpus()),
        };
        assert_pinned(name, sim, (events_pinned, jsonl_pinned, chrome_pinned));
    }
}

/// The serve world's report, byte for byte: the reference cell, the two
/// small fuzz cells (in the outage one the circuit breaker trips and
/// probes, and the retry budget runs dry) and a burst at reference scale,
/// where backpressure, CoDel and the degradation ladder all act. Each pin
/// is the JSON's length and FNV-1a hash.
#[test]
fn serve_reports_are_the_pinned_bytes() {
    const SERVE_SEED: u64 = 0xCEDA_2026;
    let mut overload = ServeSpec::scenario(ServeScenario::Burst, 3_000, SERVE_SEED);
    overload.window = secs(5);
    let pinned = [
        (
            "reference",
            ServeSpec::reference(1_000, SERVE_SEED),
            857,
            0xfa0d_f921_ab69_486b,
        ),
        (
            "burst",
            ServeSpec::fuzz_small(ServeScenario::Burst, SERVE_SEED),
            883,
            0xee6e_15b8_5767_a0fe,
        ),
        (
            "outage",
            ServeSpec::fuzz_small(ServeScenario::Outage, SERVE_SEED),
            887,
            0x05b4_7b58_9b1d_0660,
        ),
        ("overload", overload, 983, 0xd6d2_d2d6_4848_5a56),
    ];
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (name, spec, len_pinned, hash_pinned) in pinned {
        let json = run_report(spec).to_json().to_string();
        got.push((name, json.len(), fnv1a(json.as_bytes())));
        want.push((name, len_pinned, hash_pinned));
    }
    assert_eq!(got, want, "{got:#x?}");
}

/// The reader sizes each object by its sibling: a Chrome trace's events
/// have a few shapes, and an event whose predecessor had as many fields
/// is one exact allocation (`Vec`'s own growth would leave a 7-field
/// event with room for 8). In one virtual second that is over half the
/// events, the rest being each track's metadata; the share grows with
/// the window.
#[test]
fn chrome_events_read_back_one_allocation_each() {
    let Recording { events, labels } =
        record(keyboard(ChaosConfig::none(), PolicyKind::RoundRobin));
    let mut chrome = Vec::new();
    write_chrome(&events, &labels, &mut chrome).unwrap();
    let doc = Json::parse(std::str::from_utf8(&chrome).unwrap()).unwrap();
    let objects = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    let fields = |obj: &Json| match obj {
        Json::Obj(fields) => (fields.len(), fields.capacity()),
        other => panic!("not an object: {other:?}"),
    };
    let mut exact = 0;
    for pair in objects.windows(2) {
        let ((before, _), (len, capacity)) = (fields(&pair[0]), fields(&pair[1]));
        if before == len {
            assert_eq!(capacity, len, "{}", pair[1]);
            exact += 1;
        }
    }
    assert!(exact * 2 > objects.len(), "{exact} of {}", objects.len());
}
