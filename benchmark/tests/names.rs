//! Name drift: the names a run prints, the names `BENCHMARK.json`
//! declares and the names `README.md` documents are one set. Runs every
//! workload at the smoke scale, traced, so every name is printed.

use std::collections::BTreeSet;

use mirage_benchmark::harness::{Opts, DEFAULT_SEED};
use mirage_benchmark::names;
use mirage_telemetry::json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const README: &str = include_str!("../README.md");

fn set<'a>(names: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
    names.into_iter().map(str::to_string).collect()
}

/// `(name, unit, better)` of every entry under `key` in `BENCHMARK.json`.
fn declared(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    let field = |entry: &Value, field: &str| {
        entry
            .get(field)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} entry without {field}"))
            .to_string()
    };
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect()
}

/// Names the README's glossary tables document: the first column of
/// every table row that starts with a back-quoted name.
fn documented() -> BTreeSet<String> {
    README
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split_once('`'))
        .map(|(name, _)| name.to_string())
        .collect()
}

#[test]
fn printed_declared_and_documented_names_agree() {
    let doc = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");

    let workloads = set(names::WORKLOADS);
    let declared_workloads: BTreeSet<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, declared_workloads, "workloads vs BENCHMARK.json");

    // End-to-end: names, units, directions and bounds.
    let end_to_end = declared(&doc, "end_to_end");
    let bounds: Vec<f64> = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end")
        .iter()
        .map(|e| e.get("bound").and_then(Value::as_f64).expect("bound"))
        .collect();
    assert_eq!(end_to_end.len(), names::END_TO_END.len());
    for (((name, unit, better), bound), (def, def_bound)) in
        end_to_end.iter().zip(bounds).zip(names::END_TO_END)
    {
        assert_eq!((name.as_str(), unit.as_str()), (def.name, def.unit));
        assert_eq!(better, def.better.as_str(), "{name}");
        assert_eq!(bound, def_bound, "{name}");
    }

    // Per-layer: names, units and directions, in order.
    let per_layer = declared(&doc, "per_layer");
    assert_eq!(per_layer.len(), names::PER_LAYER.len());
    for ((name, unit, better), def) in per_layer.iter().zip(names::PER_LAYER) {
        assert_eq!((name.as_str(), unit.as_str()), (def.name, def.unit));
        assert_eq!(better, def.better.as_str(), "{name}");
    }

    // The README documents exactly the workloads and metrics.
    let mut all = workloads.clone();
    all.extend(
        names::END_TO_END
            .iter()
            .map(|(def, _)| def.name.to_string()),
    );
    all.extend(names::PER_LAYER.iter().map(|def| def.name.to_string()));
    assert_eq!(documented(), all, "README glossary vs declared names");

    // Every workload prints exactly the declared names.
    for workload in names::WORKLOADS {
        let report = mirage_benchmark::run(&Opts {
            workload: workload.to_string(),
            seed: DEFAULT_SEED,
            seconds: 1.0,
            trace: true,
            smoke: true,
        })
        .expect("known workload");
        assert_eq!(report.ops.failed, 0, "{workload}: failed operations");
        assert_eq!(
            set(report.end_to_end.keys().copied()),
            set(names::END_TO_END.iter().map(|(def, _)| def.name)),
            "{workload}: end-to-end names"
        );
        assert_eq!(
            set(report.per_layer.keys().copied()),
            set(names::PER_LAYER.iter().map(|def| def.name)),
            "{workload}: per-layer names"
        );
        assert!(report.trace.is_some(), "{workload}: traced run has a trace");
    }
    assert!(mirage_benchmark::run(&Opts {
        workload: "no_such_workload".into(),
        seed: DEFAULT_SEED,
        seconds: 1.0,
        trace: false,
        smoke: true,
    })
    .is_none());
}
