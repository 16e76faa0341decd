//! `BENCHMARK.json`, as the harness itself reads it: the one place a
//! metric's unit, direction and bound are written down. A run prints
//! exactly the metrics it declares, or fails.

use std::collections::BTreeMap;

use trace::Json;

use crate::stats::Better;

/// Compiled in, so the harness cannot run against a declaration other
/// than the one it was built beside.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn declared_list(doc: &Json, key: &str) -> Result<Vec<Declared>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: no {key} array"))?;
    items
        .iter()
        .map(|item| {
            let text = |field: &str| {
                item.get(field)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: a {key} entry lacks {field}"))
            };
            let better = match text("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: better = {other:?}")),
            };
            Ok(Declared {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                better,
                bound: item.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Contract {
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json: no workloads array")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
            .collect();
        Ok(Contract {
            workloads,
            end_to_end: declared_list(&doc, "end_to_end")?,
            per_layer: declared_list(&doc, "per_layer")?,
        })
    }

    pub fn load() -> Result<Contract, String> {
        Contract::parse(BENCHMARK_JSON)
    }
}

/// The `metrics` object of a result line: every declared metric with its
/// measured value and declared unit. Errors name each declared metric
/// that was not measured and each measured one that was not declared.
pub fn metrics_object(
    declared: &[Declared],
    measured: &BTreeMap<String, f64>,
) -> Result<Json, String> {
    let mut problems = Vec::new();
    let mut fields = Vec::new();
    for d in declared {
        match measured.get(&d.name) {
            Some(v) if v.is_finite() => fields.push((
                d.name.clone(),
                Json::obj([
                    ("value", Json::from(*v)),
                    ("unit", Json::from(d.unit.as_str())),
                ]),
            )),
            Some(v) => problems.push(format!("{} measured as {v}", d.name)),
            None => problems.push(format!("{} is declared but was not measured", d.name)),
        }
    }
    for name in measured.keys() {
        if !declared.iter().any(|d| &d.name == name) {
            problems.push(format!("{name} was measured but is not declared"));
        }
    }
    if problems.is_empty() {
        Ok(Json::Obj(fields))
    } else {
        Err(problems.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "l.count", "unit": "count", "better": "higher"}]
    }"#;

    #[test]
    fn the_declaration_parses() {
        let c = Contract::parse(SAMPLE).unwrap();
        assert_eq!(c.workloads, ["a", "b"]);
        assert_eq!(c.end_to_end[0].bound, Some(0.25));
        assert_eq!(c.end_to_end[0].better, Better::Lower);
        assert_eq!(c.per_layer[0].bound, None);
        assert!(Contract::parse(r#"{"workloads": []}"#).is_err());
    }

    #[test]
    fn the_checked_in_declaration_parses_and_is_within_the_limits() {
        let c = Contract::load().unwrap();
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        assert!(c.end_to_end.iter().any(|d| d.name == "setup_s"));
        assert!(c
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
    }

    #[test]
    fn printed_and_declared_must_match_exactly() {
        let c = Contract::parse(SAMPLE).unwrap();
        let measured = |names: &[&str]| names.iter().map(|n| (n.to_string(), 1.5)).collect();
        let ok = metrics_object(&c.end_to_end, &measured(&["setup_s"])).unwrap();
        assert_eq!(ok.to_string(), r#"{"setup_s":{"value":1.5,"unit":"s"}}"#);
        let missing = metrics_object(&c.end_to_end, &measured(&[])).unwrap_err();
        assert!(missing.contains("setup_s is declared but was not measured"));
        let extra = metrics_object(&c.end_to_end, &measured(&["setup_s", "x"])).unwrap_err();
        assert!(extra.contains("x was measured but is not declared"));
    }
}
