//! The paper experiments as tier-1 tests.
//!
//! Each experiment document in the repository root holds deterministic
//! results, so each test here runs its `repro` experiment into a fresh
//! directory and requires the written file to equal the committed one
//! byte for byte — the check `git diff --exit-code` makes after
//! regenerating by hand. On a mismatch the failure names the first
//! differing JSON path, with the committed and the regenerated value.

use std::mem::discriminant;
use std::path::PathBuf;
use std::process::Command;

use mirage_bench::benchgate::EXPERIMENT_DOCUMENTS;
use mirage_telemetry::json::Value;

/// The entry `key` of an object, or the element at index `key` of an
/// array.
fn child<'a>(v: Option<&'a Value>, key: &str) -> Option<&'a Value> {
    match v? {
        Value::Arr(items) => items.get(key.parse::<usize>().ok()?),
        v => v.get(key),
    }
}

/// Where `regenerated` first differs from `committed`: the dotted path
/// (`results.3.completion_time`) and both values as compact JSON, `-`
/// standing for a value one side lacks. `None` when the values agree.
fn first_difference(
    path: &str,
    committed: Option<&Value>,
    regenerated: Option<&Value>,
) -> Option<String> {
    let keys = |v: Option<&Value>| -> Vec<String> {
        match v {
            Some(Value::Obj(pairs)) => pairs.iter().map(|(key, _)| key.clone()).collect(),
            Some(Value::Arr(items)) => (0..items.len()).map(|i| i.to_string()).collect(),
            _ => Vec::new(),
        }
    };
    let nested = matches!(committed, Some(Value::Obj(_) | Value::Arr(_)));
    if nested && committed.map(discriminant) == regenerated.map(discriminant) {
        // A key both sides share is visited twice; the second visit
        // finds nothing the first did not.
        return keys(committed)
            .iter()
            .chain(&keys(regenerated))
            .find_map(|key| {
                let at = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                first_difference(&at, child(committed, key), child(regenerated, key))
            });
    }
    let show = |v: Option<&Value>| v.map_or_else(|| "-".to_string(), Value::to_compact);
    (committed != regenerated).then(|| {
        format!(
            "{path} committed {}, regenerated {}",
            show(committed),
            show(regenerated)
        )
    })
}

/// Runs the experiment that writes `file` and compares the result with
/// the committed document.
fn regenerates_identically(file: &str) {
    let (experiment, _) = EXPERIMENT_DOCUMENTS
        .iter()
        .find(|(_, f)| *f == file)
        .unwrap_or_else(|| panic!("{file} is not an experiment document"));
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let dir = std::env::temp_dir().join(format!(
        "mirage-experiment-{}-{experiment}",
        std::process::id()
    ));
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([experiment, "--csv"])
        .arg(&dir)
        .output()
        .expect("run repro");
    assert!(
        run.status.success(),
        "repro {experiment} failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let regenerated = std::fs::read_to_string(dir.join(file)).expect("the written document");
    std::fs::remove_dir_all(&dir).expect("remove the output directory");
    let committed = std::fs::read_to_string(root.join(file)).expect("the committed document");
    if regenerated == committed {
        return;
    }
    let parse = |text: &str, which: &str| {
        Value::parse(text).unwrap_or_else(|e| panic!("{file}: {which} document: {e}"))
    };
    let (committed, regenerated) = (
        parse(&committed, "committed"),
        parse(&regenerated, "regenerated"),
    );
    let difference = first_difference("", Some(&committed), Some(&regenerated));
    panic!(
        "{file}: {} (regenerate with repro {experiment})",
        difference.unwrap_or_else(|| "same values, different layout".to_string())
    );
}

#[test]
fn fault_sweep_regenerates_bench_faults() {
    regenerates_identically("BENCH_faults.json");
}

#[test]
fn rollback_sweep_regenerates_bench_rollback() {
    regenerates_identically("BENCH_rollback.json");
}

#[test]
fn sweep_regenerates_bench_sweep() {
    regenerates_identically("BENCH_sweep.json");
}
