//! Pins the exported bytes of one recorded run inside tier-1: the JSONL
//! and Chrome documents of Cedar/Keyboard, one virtual second, clean and
//! under the chaos preset (so instants and flows appear). The hashes
//! were taken from the build before the exporters stopped going through
//! a `Json` tree; `benchmark/expected.json` pins the same formats on
//! other cells, but only when the benchmark runs.

use threadstudy::pcr::{secs, ChaosConfig, Event, RunLimit, VecSink};
use threadstudy::trace::{take_collector, write_chrome, write_jsonl, Json, TraceLabels};
use threadstudy::workloads::{build_chaos, chaos_preset, Benchmark, System};

/// 64-bit FNV-1a, the hash `benchmark/` uses for its digests.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Cedar/Keyboard for one virtual second under `chaos`: the recorded
/// events and the names to export them with.
fn record(chaos: ChaosConfig) -> (Vec<Event>, TraceLabels) {
    let mut sim = build_chaos(System::Cedar, Benchmark::Keyboard, 0x5EED_0015, chaos);
    sim.set_sink(Box::new(VecSink::default()));
    assert!(!sim.run(RunLimit::For(secs(1))).deadlocked());
    let labels = TraceLabels::from_sim(&sim);
    (take_collector::<VecSink>(&mut sim).unwrap().events, labels)
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
        let (events, labels) = record(chaos);
        let (mut jsonl, mut chrome) = (Vec::new(), Vec::new());
        assert_eq!(write_jsonl(&events, &mut jsonl).unwrap(), events_pinned);
        write_chrome(&events, &labels, &mut chrome).unwrap();
        let got = (fnv1a(&jsonl), fnv1a(&chrome));
        assert_eq!(got, (jsonl_pinned, chrome_pinned), "{got:#x?}");
    }
}

/// The reader sizes each object by its sibling: a Chrome trace's events
/// have a few shapes, and an event whose predecessor had as many fields
/// is one exact allocation (`Vec`'s own growth would leave a 7-field
/// event with room for 8). In one virtual second that is over half the
/// events, the rest being each track's metadata; the share grows with
/// the window.
#[test]
fn chrome_events_read_back_one_allocation_each() {
    let (events, labels) = record(ChaosConfig::none());
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
