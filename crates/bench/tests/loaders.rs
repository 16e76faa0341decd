//! Garbage in, error out: every loader of a file `repro` reads back — the
//! serve and lint baselines and the stored fuzz case — starting
//! from a valid document of its kind, fed each proper prefix of its text,
//! each node it reads replaced by a value of the wrong type, each field
//! removed, and each value it refuses though the type is right. A
//! damaged file is an `Err` naming the damaged path, never a panic and
//! never a default; only an optional field may go. The text readers, the
//! trace's among them, also get cut and misspelt text and must not panic.

use trace::Json;

type Reader = fn(&Json) -> Result<(), String>;

const CASE: &str = r#"{"v":2,"world":"cell","system":"GVX","benchmark":"Scroll",
"seed":"beef","window_us":2000000,"slice_us":250000,"wedge_threshold_us":1500000,
"max_threads":null,"policy":"mlfq","intensity":"stall-gated","signature":"wedge:[x(cv)]",
"decisions":[{"kind":"spurious_wakeup","site":4,"param_us":120}],"stalls":[{"thread":"x",
"at_us":2000,"duration_us":1000000,"while_holding":"gvx-screen"}]}"#;

/// `(kind, valid document, reader, required paths)`. The lint document
/// holds only the field its reader reads.
fn kinds() -> [(&'static str, Json, Reader, &'static str); 3] {
    let serve = workloads::serve::run_report(serverd::ServeSpec::reference(60, 0xA5));
    [
        (
            "serve",
            serve.to_json(),
            |j| serverd::ServeReport::from_json(j).map(drop),
            "schema latency_us.p50 latency_us.p99 latency_us.p999 goodput_per_sec amplification",
        ),
        (
            "lint",
            Json::parse(r#"{"findings":["a|x.rs|one","b|y.rs|two"]}"#).unwrap(),
            |j| bench::lint::baseline_findings(j).map(drop),
            "findings",
        ),
        (
            "case",
            Json::parse(CASE).unwrap(),
            |j| resilience::StoredCase::from_json(j).map(drop),
            "v world system benchmark seed window_us slice_us wedge_threshold_us max_threads \
             intensity signature decisions.0.kind decisions.0.site decisions.0.param_us \
             stalls.0.thread stalls.0.at_us stalls.0.duration_us",
        ),
    ]
}

/// `(kind, path, value)`: values of the right type that the kind's
/// reader must still refuse. A zero slice would never end a trial, and a
/// stall that ends past `u64::MAX` µs would overflow the clock.
fn out_of_range() -> [(&'static str, &'static str, Json); 2] {
    [
        ("case", "slice_us", Json::from(0u64)),
        ("case", "stalls.0.duration_us", Json::from(u64::MAX)),
    ]
}

/// Every node's dotted path, each with whether its parent is an object.
fn paths(node: &Json, prefix: &str, out: &mut Vec<(String, bool)>) {
    let children: Vec<(String, &Json)> = match node {
        Json::Obj(fields) => fields.iter().map(|(k, v)| (k.clone(), v)).collect(),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| (i.to_string(), v))
            .collect(),
        _ => return,
    };
    for (key, child) in children {
        let path = [prefix, &key].join(if prefix.is_empty() { "" } else { "." });
        out.push((path.clone(), matches!(node, Json::Obj(_))));
        paths(child, &path, out);
    }
}

/// Replaces the node at `path` with `new`, or removes it when `new` is
/// `None` (object fields only).
fn edit(node: &mut Json, path: &str, new: Option<Json>) {
    let (head, tail) = path
        .split_once('.')
        .map_or((path, None), |(h, t)| (h, Some(t)));
    let slot = match node {
        Json::Obj(fields) => {
            let i = fields.iter().position(|(k, _)| k == head).unwrap();
            if tail.is_none() && new.is_none() {
                fields.remove(i);
                return;
            }
            &mut fields[i].1
        }
        Json::Arr(items) => &mut items[head.parse::<usize>().unwrap()],
        other => panic!("{path} under a scalar {other}"),
    };
    match tail {
        Some(tail) => edit(slot, tail, new),
        None => *slot = new.expect("only object fields are removed"),
    }
}

#[test]
fn every_damaged_document_is_an_error_naming_the_damage() {
    for (kind, doc, read, required) in kinds() {
        assert_eq!(read(&doc), Ok(()), "{kind}: the valid document");
        for (_, path, value) in out_of_range().into_iter().filter(|(k, ..)| *k == kind) {
            let mut bad = doc.clone();
            edit(&mut bad, path, Some(value));
            let err = read(&bad).expect_err(&format!("{kind}: {path} out of range"));
            assert!(err.contains(path), "{kind}: {path} out of range: {err}");
        }
        let text = doc.pretty();
        for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
            let got = Json::parse(&text[..end]).and_then(|j| read(&j));
            assert!(got.is_err(), "{kind}: the first {end} bytes read");
        }
        let mut all = Vec::new();
        paths(&doc, "", &mut all);
        for (path, in_object) in all {
            let wrong = match doc.at(&path).unwrap() {
                Json::Str(_) => Json::from(7u64),
                Json::Null => Json::Bool(true),
                _ => Json::from("x"),
            };
            let mut bad = doc.clone();
            edit(&mut bad, &path, Some(wrong));
            let err = read(&bad).expect_err(&format!("{kind}: {path} of the wrong type"));
            assert!(
                err.contains(&path),
                "{kind}: {path} of the wrong type: {err}"
            );
            if in_object {
                let mut cut = doc.clone();
                edit(&mut cut, &path, None);
                let needed = required
                    .split_whitespace()
                    .any(|r| r == path || r.starts_with(&format!("{path}.")));
                match read(&cut) {
                    Err(err) => assert!(needed && err.contains(&path), "{kind}: {path} cut: {err}"),
                    Ok(()) => assert!(!needed, "{kind}: {path} is required, read without"),
                }
            }
        }
    }
}

/// A text reader whose result does not matter, only that it returns.
type TextReader = fn(&str);

/// The bytes a misspelling writes: JSON's own punctuation, the starts of
/// its literals, and three a string may not hold raw.
const MISSPELLINGS: &[u8] = b"{}[]\":,.-+019eEtfnul \\\n\x00\x7f";

/// `2 * n` garbled copies of `text`, each with what was done to it: `n`
/// cut at char boundaries spread evenly over it, then `n` with one ASCII
/// byte replaced by another from [`MISSPELLINGS`] at a seeded offset.
fn garbled(text: &str, n: usize) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = (0..n)
        .map(|i| {
            let end = (0..=text.len() * i / n)
                .rev()
                .find(|&end| text.is_char_boundary(end))
                .unwrap_or(0);
            (format!("cut to {end} bytes"), text[..end].to_string())
        })
        .collect();
    let mut rng = pcr::SplitMix64::new(0x6A2B_A6E5);
    while out.len() < 2 * n {
        let at = rng.next_below(text.len() as u64) as usize;
        let to = MISSPELLINGS[rng.next_below(MISSPELLINGS.len() as u64) as usize];
        let mut bytes = text.as_bytes().to_vec();
        if bytes[at].is_ascii() && bytes[at] != to {
            bytes[at] = to;
            let text = String::from_utf8(bytes).expect("one ASCII byte for another");
            out.push((format!("byte {at} as {:?}", char::from(to)), text));
        }
    }
    out
}

#[test]
fn garbled_text_is_never_a_panic() {
    let mut sim = workloads::runner::build(
        workloads::System::Cedar,
        workloads::Benchmark::Keyboard,
        0xBEEF,
    );
    let (_, trace::Recording { events, labels }) =
        trace::Recording::run(&mut sim, pcr::RunLimit::For(pcr::millis(100)));
    let (mut jsonl, mut chrome) = (Vec::new(), Vec::new());
    trace::write_jsonl(&events, &mut jsonl).unwrap();
    trace::write_chrome(&events, &labels, &mut chrome).unwrap();
    let serve = workloads::serve::run_report(serverd::ServeSpec::reference(60, 0xA5));
    let readers: [(&str, String, TextReader); 4] = [
        ("jsonl", String::from_utf8(jsonl).unwrap(), |t| {
            drop(trace::parse_jsonl(t))
        }),
        ("chrome", String::from_utf8(chrome).unwrap(), |t| {
            drop(Json::parse(t))
        }),
        ("case", CASE.to_string(), |t| {
            drop(Json::parse(t).and_then(|j| resilience::StoredCase::from_json(&j)))
        }),
        ("serve", serve.to_json().pretty(), |t| {
            drop(Json::parse(t).and_then(|j| serverd::ServeReport::from_json(&j)))
        }),
    ];
    for (kind, text, read) in readers {
        for (what, input) in garbled(&text, 128) {
            let read = std::panic::catch_unwind(|| read(&input));
            assert!(read.is_ok(), "{kind}, {what}: the reader panicked");
        }
    }
}
