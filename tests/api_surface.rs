//! Public surface: `pub` means "used outside the crate". Every
//! `pub fn|const|static|struct|enum|trait|type` and every named `pub`
//! struct field in a library crate's `src/` must be named in some `.rs`
//! file outside that `src/`: another crate, the root `src/`, `tests/`,
//! `examples/`, `benchmark/`, the crate's own `tests/`, `benches/` or
//! `src/bin/`. Rust reports no dead code for a `pub` item in a library,
//! so without this an item with no caller stays hidden.
//!
//! The scan is by name and skips comment lines. It cannot see a type
//! that outside code only reaches through a public signature (a
//! returned struct whose name it never writes), so `ALLOWED` names each
//! such item with the signature that needs it. It also misses a name
//! that some other item shares: a new `pub fn len` or `pub id` field
//! passes because other crates say `len` and `id`. Narrowing such an
//! item to `pub(crate)` is what shows whether anything calls it: the
//! compiler's dead-code lint (`-D warnings` under clippy) covers every
//! `pub(crate)` item, and a build fails on any outside caller.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Items outside code reaches only through a public signature, and the
/// signature that needs each one `pub`.
const ALLOWED: &[(&str, &str)] = &[
    // mirage-bench
    ("BenchStats", "harness::Harness::bench(..) -> &BenchStats"),
    (
        "Suite",
        "benchgate::SUITES: &[Suite], benchgate::check(&Suite, ..)",
    ),
    // mirage-cluster
    (
        "ClusterToken",
        "privacy::machine_token(..) -> ClusterToken, privacy::is_my_turn(.., ClusterToken)",
    ),
    // mirage-env
    ("RunSink", "app::execute(.., sink: &mut S) where S: RunSink"),
    // mirage-fingerprint
    ("Chunk", "Chunker::chunk(..) -> Vec<Chunk>"),
    // mirage-report
    ("FailureGroup", "Urr::failure_groups() -> Vec<FailureGroup>"),
    ("UrrStats", "Urr::stats() -> UrrStats"),
    (
        "ReleaseSummary",
        "Urr::release_summaries() -> Vec<ReleaseSummary>",
    ),
    (
        "ClusterFailureRate",
        "Urr::cluster_failure_rates() -> Vec<ClusterFailureRate>",
    ),
    (
        "WireError",
        "UrrRequest::from_frame(..) -> Result<UrrRequest, WireError>",
    ),
    (
        "RecoveryReport",
        "DurableUrr::recover(..) -> Result<(DurableUrr, RecoveryReport), StoreError>",
    ),
    (
        "StoreError",
        "UrrStore::append_frame(..) -> Result<bool, StoreError>",
    ),
    // mirage-scenarios
    ("AppModel", "apps::all_models() -> Vec<AppModel>"),
    (
        "Frequency",
        "survey::figure1(..) -> Vec<(Frequency, [usize; 4])>",
    ),
    ("Respondent", "survey::dataset() -> Vec<Respondent>"),
    ("SurveyStats", "survey::stats(..) -> SurveyStats"),
    (
        "MachineConfig",
        "mysql::table2_configs() -> Vec<MachineConfig>",
    ),
    // mirage-sim
    ("Timings", "Scenario::timings: Timings"),
    (
        "ClusterLatency",
        "SimMetrics::cluster_latencies(..) -> Vec<ClusterLatency>",
    ),
    ("FaultPlan", "Scenario::faults: FaultPlan"),
    ("TimeColumn", "SimMetrics::machine_pass_time: TimeColumn"),
    // mirage-telemetry
    ("WaveHealth", "health::rollup(..) -> Vec<WaveHealth>"),
    (
        "GaugeSnapshot",
        "Snapshot::gauges: BTreeMap<String, GaugeSnapshot>",
    ),
    ("Snapshot", "Registry::snapshot() -> Snapshot"),
    (
        "HistogramSummary",
        "Snapshot::histograms: BTreeMap<String, HistogramSummary>",
    ),
    // mirage-testing
    ("AppVerdict", "ValidationReport::verdicts: Vec<AppVerdict>"),
];

const KINDS: &[&str] = &["fn", "const", "static", "struct", "enum", "trait", "type"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The lines of `text` that are not comment lines.
fn code_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
}

fn words(text: &str) -> HashSet<&str> {
    code_lines(text)
        .flat_map(|(_, line)| line.split(|c: char| !(c.is_alphanumeric() || c == '_')))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The name a `pub` item declaration or named `pub` field introduces,
/// if `line` is one of the kinds this test covers.
fn pub_item(line: &str) -> Option<(&'static str, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const fn ", "unsafe fn ", "async fn "] {
        if let Some(r) = rest.strip_prefix(qualifier) {
            return Some(("fn", ident(r)));
        }
    }
    KINDS
        .iter()
        .find_map(|&kind| {
            let r = rest.strip_prefix(kind)?.strip_prefix(' ')?;
            Some((kind, ident(r)))
        })
        .or_else(|| {
            // A field: `pub name: Type,` (a path `pub a::b` is a `use`).
            let name = ident(rest);
            let after = rest[name.len()..].trim_start();
            let is_field = !name.is_empty()
                && after.starts_with(':')
                && !after.starts_with("::")
                && !KINDS.contains(&name);
            is_field.then_some(("field", name))
        })
}

fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

#[test]
fn every_pub_item_has_a_caller_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, &mut files);
    // This file names every allowed item; it is no caller of them.
    let this_file = root.join(file!());
    let texts: Vec<(PathBuf, String)> = files
        .into_iter()
        .filter(|p| *p != this_file)
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable source");
            (p, text)
        })
        .collect();
    let vocab: Vec<HashSet<&str>> = texts.iter().map(|(_, t)| words(t)).collect();

    let allowed: HashSet<&str> = ALLOWED.iter().map(|(name, _)| *name).collect();
    let mut unused: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut stale_allows: HashSet<&str> = allowed.clone();
    let crates = root.join("crates");
    for (path, text) in &texts {
        let Ok(rel) = path.strip_prefix(&crates) else {
            continue;
        };
        let mut parts = rel.components();
        let krate = parts.next().expect("crate dir").as_os_str();
        let lib_src = crates.join(krate).join("src");
        if !path.starts_with(&lib_src) || path.starts_with(lib_src.join("bin")) {
            continue;
        }
        let inside = |p: &Path| p.starts_with(&lib_src) && !p.starts_with(lib_src.join("bin"));
        for (n, line) in code_lines(text) {
            let Some((kind, name)) = pub_item(line) else {
                continue;
            };
            let used = texts
                .iter()
                .zip(&vocab)
                .any(|((p, _), w)| !inside(p) && w.contains(name));
            if used {
                continue;
            }
            if allowed.contains(name) {
                stale_allows.remove(name);
                continue;
            }
            unused
                .entry(krate.to_string_lossy().into_owned())
                .or_default()
                .push(format!(
                    "pub {kind} {name} ({}:{})",
                    path.strip_prefix(root).unwrap_or(path).display(),
                    n + 1
                ));
        }
    }

    let report: Vec<String> = unused
        .iter()
        .map(|(krate, items)| format!("{krate} ({}):\n  {}", items.len(), items.join("\n  ")))
        .collect();
    assert!(
        unused.is_empty(),
        "{} pub items have no caller outside their crate; make them \
         pub(crate) or private, or name the public signature that needs \
         them in ALLOWED:\n{}",
        unused.values().map(Vec::len).sum::<usize>(),
        report.join("\n")
    );
    let mut stale: Vec<&str> = stale_allows.into_iter().collect();
    stale.sort_unstable();
    assert!(
        stale.is_empty(),
        "ALLOWED entries that are no longer pub or now have an outside caller: {stale:?}"
    );
}
