//! `expected.json`: what every workload must produce for the default
//! seed at the full sizes. A change that speeds the simulator up must
//! leave all of it alone.

use std::collections::{BTreeMap, BTreeSet};

use trace::Json;

use crate::workload::Digest;

const EXPECTED_JSON: &str = include_str!("../expected.json");

pub struct Expected {
    /// Pinned digest of each workload, by workload name.
    pub digests: BTreeMap<String, Digest>,
    /// Failure signatures somebody has triaged.
    pub known_signatures: BTreeSet<String>,
}

fn string_map(j: &Json) -> Digest {
    match j {
        Json::Obj(fields) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect(),
        _ => Digest::new(),
    }
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = Json::parse(text).map_err(|e| format!("expected.json: {e}"))?;
        let Some(Json::Obj(digests)) = doc.get("digests") else {
            return Err("expected.json: no digests object".to_string());
        };
        Ok(Expected {
            digests: digests
                .iter()
                .map(|(k, v)| (k.clone(), string_map(v)))
                .collect(),
            known_signatures: doc
                .get("known_signatures")
                .and_then(Json::as_array)
                .ok_or("expected.json: no known_signatures array")?
                .iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect(),
        })
    }

    pub fn load() -> Result<Expected, String> {
        Expected::parse(EXPECTED_JSON)
    }
}

/// Per-cell event volumes of the twelve cells at `repro bench`'s own
/// 30 s window: the figures of `BENCH_threadstudy.json`. Too slow for
/// every run's set-up, so only the crate's tests hold the simulator
/// to them.
#[cfg(test)]
pub fn matrix_30s() -> BTreeMap<String, u64> {
    let doc = Json::parse(EXPECTED_JSON).expect("expected.json parses");
    let Some(Json::Obj(cells)) = doc.get("matrix_30s") else {
        panic!("expected.json: no matrix_30s object");
    };
    cells
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().expect("a volume")))
        .collect()
}

/// One complaint per entry of `got` that differs from `want`, is missing
/// from it, or is missing from `got`.
pub fn mismatches(want: &Digest, got: &Digest) -> Vec<String> {
    let keys: BTreeSet<&String> = want.keys().chain(got.keys()).collect();
    keys.into_iter()
        .filter(|k| want.get(*k) != got.get(*k))
        .map(|k| {
            let show = |d: &Digest| d.get(k).map_or("nothing", String::as_str).to_string();
            format!("{k}: expected {}, got {}", show(want), show(got))
        })
        .collect()
}

/// A digest as the JSON object `expected.json` stores.
pub fn digest_json(d: &Digest) -> Json {
    Json::Obj(
        d.iter()
            .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(pairs: &[(&str, &str)]) -> Digest {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn mismatches_name_changed_missing_and_extra_entries() {
        let want = digest(&[("a", "1"), ("b", "2"), ("c", "3")]);
        assert!(mismatches(&want, &want).is_empty());
        let got = digest(&[("a", "1"), ("b", "9"), ("d", "4")]);
        assert_eq!(
            mismatches(&want, &got),
            [
                "b: expected 2, got 9",
                "c: expected 3, got nothing",
                "d: expected nothing, got 4"
            ]
        );
    }

    #[test]
    fn the_checked_in_goldens_parse() {
        let e = Expected::load().unwrap();
        for workload in ["matrix", "serve", "fuzz", "offline"] {
            assert!(
                e.digests.get(workload).is_some_and(|d| !d.is_empty()),
                "no digest for {workload}"
            );
        }
        assert_eq!(matrix_30s().len(), 12);
        assert_eq!(matrix_30s().values().sum::<u64>(), 613_443);
        assert!(e.known_signatures.len() >= 9);
    }

    #[test]
    fn a_digest_survives_the_file_format() {
        let d = digest(&[("sig wedge:[A(fork)]", "3"), ("trials", "32")]);
        let text = Json::obj([("digests", Json::Obj(vec![("fuzz".into(), digest_json(&d))]))]);
        let mut doc = text;
        doc.push("known_signatures", Json::arr([]));
        let e = Expected::parse(&doc.to_string()).unwrap();
        assert_eq!(e.digests["fuzz"], d);
    }
}
