//! Validation of the committed `BENCH_*.json` documents.
//!
//! The committed documents in the repository root are what
//! EXPERIMENTS.md and the README cite. They come in two kinds.
//!
//! The experiment documents ([`EXPERIMENT_DOCUMENTS`]) hold
//! deterministic results: the same tree writes the same bytes on any
//! host. Tier-1 (`crates/bench/tests/experiments.rs`) regenerates each
//! with its `repro` experiment and compares it byte for byte with the
//! committed file, so no rule here reads them.
//!
//! The timing documents hold host-dependent measurements, so they are
//! gated by invariants instead. The `repro bench-check` subcommand — and
//! the `committed_documents_pass_the_gate` unit test — run [`check`]
//! over each and fail when one no longer parses, no longer matches the
//! expected schema, or no longer satisfies its invariants (stale schema
//! after a harness change, hand-mangled numbers, a truncated write).
//!
//! What each timing document must satisfy is data: [`SUITES`] lists, per
//! document, its file, its `suite` name and a few [`Rule`]s from a
//! small closed set — harness rows well-formed, a row present, a row
//! marked `scale`, a row's fastest sample within a span, a scalar within
//! a span, a flag true or false, a p50 ≤ p99 pair — and [`check`] is one
//! interpreter over that table.
//! Gating a new document is one more [`Suite`] entry. One check is
//! genuinely logic and stays a plain function the table names: the
//! `trace_sample` schema.
//!
//! Harness rows must carry at least `MIN_SAMPLES` (3) samples unless
//! they are explicitly marked `"scale": true` — a single-observation
//! statistic is either an intentional scale run or a truncated write,
//! and the marker is how a document says which.
//!
//! Checks are pure functions over the document text, so the negative
//! cases (corrupted JSON, missing keys, every rule's violation applied
//! to the real committed documents) are unit tested right here.

use std::ops::{Bound, RangeBounds};

use crate::harness::MIN_SAMPLES;
use mirage_telemetry::json::Value;

/// The values a [`Rule::Num`] scalar may take.
pub type Span = (Bound<f64>, Bound<f64>);

const fn at_least(x: f64) -> Span {
    (Bound::Included(x), Bound::Unbounded)
}
const fn at_most(x: f64) -> Span {
    (Bound::Unbounded, Bound::Included(x))
}
const fn above(x: f64) -> Span {
    (Bound::Excluded(x), Bound::Unbounded)
}
const fn below(x: f64) -> Span {
    (Bound::Unbounded, Bound::Excluded(x))
}

/// `>= 5`, `< 15`, `>= 0 and <= 0`: a span as failure messages say it.
fn span_text((low, high): Span) -> String {
    let edge = |bound, closed: &str, open: &str| match bound {
        Bound::Included(x) => Some(format!("{closed} {x}")),
        Bound::Excluded(x) => Some(format!("{open} {x}")),
        Bound::Unbounded => None,
    };
    let edges = [edge(low, ">=", ">"), edge(high, "<=", "<")];
    edges
        .into_iter()
        .flatten()
        .collect::<Vec<_>>()
        .join(" and ")
}

/// One invariant of a committed document. Scalar keys are dotted paths
/// from the document root (`query.top_k_p50_ns`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Every `results` row is a well-formed harness row: non-negative
    /// statistics, `min ≤ p50 ≤ max`, `min ≤ mean ≤ max`, and at least
    /// `MIN_SAMPLES` (3) samples unless marked `scale`.
    HarnessRows,
    /// A `results` row of this name exists.
    Row(&'static str),
    /// A `results` row of this name exists and is marked `"scale":
    /// true` (a deliberate single-shot).
    ScaleRow(&'static str),
    /// A `results` row of this name exists and its `min_ns` lies within
    /// the span.
    RowMinNs(&'static str, Span),
    /// The scalar at this path lies within the span.
    Num(&'static str, Span),
    /// Like [`Rule::Num`], but the span binds full runs only: with
    /// `"smoke": true` the scalar must merely be present (debug smoke
    /// builds are noise-dominated).
    NumFullRun(&'static str, Span),
    /// The top-level flag has this value.
    Flag(&'static str, bool),
    /// A latency pair is ordered: the first scalar ≤ the second.
    Ordered(&'static str, &'static str),
    /// The embedded Chrome `trace_event` sample's schema
    /// (`trace_sample_schema`).
    TraceSample,
}

use Rule::{Flag, HarnessRows, Num, NumFullRun, Ordered, Row, RowMinNs, ScaleRow};

/// Every experiment document, with the `repro` experiment that writes
/// it. Tier-1 runs each experiment and requires the written file to
/// equal the committed one byte for byte.
pub const EXPERIMENT_DOCUMENTS: &[(&str, &str)] = &[
    ("fault-sweep", "BENCH_faults.json"),
    ("rollback-sweep", "BENCH_rollback.json"),
    ("sweep", "BENCH_sweep.json"),
];

/// One committed benchmark document and what it must satisfy.
#[derive(Debug)]
pub struct Suite {
    /// The committed file name in the repository root.
    pub file: &'static str,
    /// The `suite` value the document must carry.
    pub(crate) suite: &'static str,
    /// Its invariants, in the order they are checked.
    pub(crate) rules: &'static [Rule],
}

/// Every committed timing document.
pub const SUITES: &[Suite] = &[
    Suite {
        file: "BENCH_clustering.json",
        suite: "clustering-perf",
        rules: &[
            HarnessRows,
            Num("dense_200_speedup_vs_reference", at_least(5.0)),
            // The replicated MySQL fleet's cost from 40 to 80 copies:
            // quadratic is 4; the pre-cache merge loop measured ≈ 7.
            Num("mysql_x80_over_x40", at_most(6.0)),
        ],
    },
    Suite {
        file: "BENCH_sim.json",
        suite: "sim-perf",
        rules: &[
            HarnessRows,
            // Ceilings at the last committed `min_ns` of the string-keyed
            // reference driver's rows, which the driver replaced.
            RowMinNs("sim/100k/interned/NoStaging", below(153.8e6)),
            RowMinNs("sim/100k/interned/Balanced", below(210.4e6)),
            RowMinNs("sim/100k/interned/FrontLoading", below(201.9e6)),
            Flag("balanced_1m_under_10s", true),
            Num("balanced_1m_seconds", below(10.0)),
            // The 10M acceptance run: one marked single-shot sample.
            ScaleRow("sim/10m/interned/Balanced"),
            Flag("balanced_10m_under_10s", true),
            Num("balanced_10m_seconds", below(10.0)),
        ],
    },
    Suite {
        file: "BENCH_urr.json",
        suite: "urr-perf",
        rules: &[
            HarnessRows,
            // A ceiling at the last committed `min_ns` of the string-keyed
            // reference repository's ingest, which the interned one replaced.
            RowMinNs("urr/ingest/interned-100k", below(13.0e6)),
            Ordered("query.top_k_p50_ns", "query.top_k_p99_ns"),
            Ordered("query.failure_groups_p50_ns", "query.failure_groups_p99_ns"),
            Ordered("query.cluster_rates_p50_ns", "query.cluster_rates_p99_ns"),
            Ordered(
                "query.first_seen_window_p50_ns",
                "query.first_seen_window_p99_ns",
            ),
        ],
    },
    Suite {
        file: "BENCH_trace.json",
        suite: "trace-overhead",
        rules: &[
            HarnessRows,
            Row("trace/plain-run"),
            Row("trace/journaled-run"),
            // The 15% journaling-overhead acceptance budget.
            NumFullRun("overhead_pct", below(15.0)),
            // The spill retains every entry.
            Num(
                "journal_dropped",
                (Bound::Included(0.0), Bound::Included(0.0)),
            ),
            Num("journal_total", at_least(1.0)),
            Num("trace_events", at_least(1.0)),
            Rule::TraceSample,
        ],
    },
    Suite {
        file: "BENCH_storage.json",
        suite: "urr-store-perf",
        rules: &[
            HarnessRows,
            Row("storage/wal/append-memory-100k"),
            Row("storage/wal/append-fs-100k"),
            Row("storage/recover/wal-100k"),
            Row("storage/recover/snapshot-100k"),
            Row("storage/serve/freeze-100k"),
            Row("storage/serve/freeze-after-batch-100k"),
            Row("storage/serve/top-k-5-100k"),
            Row("storage/serve/mixed-read-write-100k"),
            // The 1M recovery measurement is a deliberate single-shot;
            // it must both exist and carry the marker.
            ScaleRow("storage/recover/snapshot-1m"),
            // Smoke volumes are far too small for the pinned recovery
            // and throughput numbers to mean anything.
            Flag("smoke", false),
            // The run replays its own journal and compares every query
            // surface of the recovered repository against the live one;
            // a false flag means the WAL+snapshot path lost data.
            Flag("recovered_equal", true),
            Num("wal_append_memory_100k_reports_per_sec", above(0.0)),
            Num("wal_append_fs_100k_reports_per_sec", above(0.0)),
            Num("freeze_100k_ms", above(0.0)),
            Num("freeze_after_batch_100k_ms", above(0.0)),
            Num("serve_top_k_5_100k_us", above(0.0)),
            Num("mixed_reads_per_sec", above(0.0)),
            Num("mixed_writes_per_sec", above(0.0)),
            // A non-positive recovery time is a clock error, not a
            // result.
            Num("recovery_wal_100k_ms", above(0.0)),
            Num("recovery_snapshot_100k_ms", above(0.0)),
            Num("recovery_snapshot_1m_ms", above(0.0)),
        ],
    },
];

/// The value at a dotted `path` of object keys below `v`.
fn lookup<'a>(v: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(v, |v, key| v.get(key))
}

fn num(v: &Value, path: &str) -> Result<f64, String> {
    lookup(v, path)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{path}'"))
}

fn string<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn boolean(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("missing or non-boolean field '{key}'"))
}

fn results(doc: &Value) -> Result<&[Value], String> {
    match doc.get("results").and_then(Value::as_array) {
        None => Err("missing 'results' array".to_string()),
        Some([]) => Err("'results' array is empty".to_string()),
        Some(rows) => Ok(rows),
    }
}

fn named_row<'a>(doc: &'a Value, name: &str) -> Result<&'a Value, String> {
    results(doc)?
        .iter()
        .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
        .ok_or_else(|| format!("missing harness row '{name}'"))
}

fn is_scale(row: &Value) -> bool {
    row.get("scale").and_then(Value::as_bool) == Some(true)
}

/// Validates one harness-style result row (the shape every `*-perf`
/// suite emits).
fn check_harness_row(row: &Value) -> Result<(), String> {
    let name = string(row, "name")?;
    let stat = |key: &str| num(row, key).map_err(|e| format!("row '{name}': {e}"));
    for key in ["samples", "min_ns", "p50_ns", "mean_ns", "max_ns"] {
        if stat(key)? < 0.0 {
            return Err(format!("row '{name}': '{key}' is negative"));
        }
    }
    let (min, max) = (stat("min_ns")?, stat("max_ns")?);
    if min > max {
        return Err(format!("row '{name}': min_ns > max_ns"));
    }
    for key in ["p50_ns", "mean_ns"] {
        if !(min..=max).contains(&stat(key)?) {
            return Err(format!("row '{name}': '{key}' outside [min_ns, max_ns]"));
        }
    }
    let samples = stat("samples")?;
    if samples < 1.0 {
        return Err(format!("row '{name}': no samples"));
    }
    // Single-observation statistics are only acceptable when the row
    // explicitly says so: `"scale": true` marks an intentional
    // single-shot scale run; anything else under the floor is a
    // truncated or degenerate measurement.
    if !is_scale(row) && samples < MIN_SAMPLES as f64 {
        return Err(format!(
            "row '{name}': {samples} sample(s); non-scale rows need at least {MIN_SAMPLES} \
             (mark intentional single-shots with \"scale\": true)"
        ));
    }
    Ok(())
}

/// The embedded head of the exported Perfetto document: every record a
/// string `name`, a phase the exporter emits, numeric `pid`/`tid`, and
/// a timestamp on everything but metadata.
fn trace_sample_schema(doc: &Value) -> Result<String, String> {
    let sample = match doc.get("trace_sample").and_then(Value::as_array) {
        None => return Err("missing 'trace_sample' array".to_string()),
        Some([]) => return Err("'trace_sample' array is empty".to_string()),
        Some(sample) => sample,
    };
    for (i, ev) in sample.iter().enumerate() {
        let name = string(ev, "name").map_err(|e| format!("trace_sample[{i}]: {e}"))?;
        let ph = string(ev, "ph").map_err(|e| format!("trace_sample[{i}]: {e}"))?;
        // The phases the exporter emits: metadata, async begin/end,
        // complete slices, and instants.
        if !["M", "b", "e", "X", "i"].contains(&ph) {
            return Err(format!(
                "trace_sample[{i}] ('{name}'): unknown trace_event phase '{ph}'"
            ));
        }
        // Every non-metadata record is a timeline record and needs a
        // timestamp.
        let timeline: &[&str] = if ph == "M" { &[] } else { &["ts"] };
        for key in ["pid", "tid"].iter().chain(timeline) {
            num(ev, key).map_err(|e| format!("trace_sample[{i}] ('{name}'): {e}"))?;
        }
    }
    Ok(format!(
        "{} sampled trace_event records schema-valid",
        sample.len()
    ))
}

/// Applies one rule to the parsed document; the note on success.
fn apply(rule: &Rule, doc: &Value) -> Result<String, String> {
    match *rule {
        HarnessRows => {
            let rows = results(doc)?;
            rows.iter().try_for_each(check_harness_row)?;
            Ok(format!("{} harness rows well-formed", rows.len()))
        }
        Row(name) => named_row(doc, name).map(|_| format!("row '{name}' present")),
        ScaleRow(name) => {
            if !is_scale(named_row(doc, name)?) {
                return Err(format!("'{name}' is not marked \"scale\": true"));
            }
            Ok(format!("row '{name}' present, marked scale"))
        }
        RowMinNs(name, span) => {
            let value = num(named_row(doc, name)?, "min_ns")?;
            if !span.contains(&value) {
                return Err(format!(
                    "row '{name}': min_ns is {value}; required {}",
                    span_text(span)
                ));
            }
            Ok(format!(
                "row '{name}' min_ns = {value} ({})",
                span_text(span)
            ))
        }
        Num(key, span) | NumFullRun(key, span) => {
            let value = num(doc, key)?;
            if matches!(rule, NumFullRun(..)) && boolean(doc, "smoke")? {
                return Ok(format!("{key} = {value} (smoke run; bound not enforced)"));
            }
            if !span.contains(&value) {
                return Err(format!("'{key}' is {value}; required {}", span_text(span)));
            }
            Ok(format!("{key} = {value} ({})", span_text(span)))
        }
        Flag(key, want) => {
            if boolean(doc, key)? != want {
                return Err(format!("'{key}' is {}; required {want}", !want));
            }
            Ok(format!("{key} is {want}"))
        }
        Ordered(low, high) => {
            let (lo, hi) = (num(doc, low)?, num(doc, high)?);
            if lo > hi {
                return Err(format!("'{low}' ({lo}) > '{high}' ({hi})"));
            }
            Ok(format!("{low} <= {high} ({lo:.0}/{hi:.0})"))
        }
        Rule::TraceSample => trace_sample_schema(doc),
    }
}

/// Parses `text` and checks it is a well-formed, invariant-satisfying
/// document of `suite`. Returns the human-readable check lines on
/// success, the first breach otherwise.
pub fn check(suite: &Suite, text: &str) -> Result<Vec<String>, String> {
    let doc = Value::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let found = string(&doc, "suite")?;
    if found != suite.suite {
        return Err(format!(
            "wrong suite: expected '{}', found '{found}'",
            suite.suite
        ));
    }
    let mut notes = vec![format!("suite '{found}' present")];
    for rule in suite.rules {
        notes.push(apply(rule, &doc)?);
    }
    Ok(notes)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::doc::BenchDoc;
    use crate::harness::BenchStats;

    /// The [`SUITES`] entry for `BENCH_<stem>.json`.
    fn suite(stem: &str) -> &'static Suite {
        let file = format!("BENCH_{stem}.json");
        SUITES.iter().find(|s| s.file == file).expect("a suite")
    }

    /// `doc` with the value at the dotted `path` (array indices
    /// allowed) replaced by `new`, or removed when `new` is `None`; a
    /// missing object key is created.
    fn edit(doc: &Value, path: &str, new: Option<Value>) -> Value {
        fn go(v: &mut Value, path: &str, new: Option<Value>) {
            let (seg, rest) = match path.split_once('.') {
                Some((seg, rest)) => (seg, Some(rest)),
                None => (path, None),
            };
            let slot = match v {
                Value::Arr(items) => &mut items[seg.parse::<usize>().expect("array index")],
                Value::Obj(pairs) => {
                    let at = pairs.iter().position(|(k, _)| k == seg);
                    if let (Some(at), None, None) = (at, rest, &new) {
                        pairs.remove(at);
                        return;
                    }
                    let at = at.unwrap_or_else(|| {
                        assert!(new.is_some(), "no key '{seg}' to remove");
                        pairs.push((seg.to_string(), Value::Obj(Vec::new())));
                        pairs.len() - 1
                    });
                    &mut pairs[at].1
                }
                _ => panic!("'{seg}' is below a scalar"),
            };
            match rest {
                Some(rest) => go(slot, rest, new),
                None => *slot = new.expect("removal returned above"),
            }
        }
        let mut doc = doc.clone();
        go(&mut doc, path, new);
        doc
    }

    fn with(doc: &Value, path: &str, new: impl Into<Value>) -> Value {
        edit(doc, path, Some(new.into()))
    }

    /// `doc` with `path` set to `new`: a breach the gate names by key.
    fn set<'a>(doc: &Value, path: &'a str, new: impl Into<Value>) -> (Value, &'a str) {
        (with(doc, path, new), path)
    }

    /// `doc` without `path`: a breach the gate names by the missing key.
    fn unset<'a>(doc: &Value, path: &'a str) -> (Value, &'a str) {
        let key = path.rsplit('.').next().expect("a key");
        (edit(doc, path, None), key)
    }

    /// `doc` with the harness row `name` renamed away.
    fn drop_row<'a>(doc: &Value, name: &'a str) -> (Value, &'a str) {
        let path = format!("{}.name", row(doc, name));
        (with(doc, &path, "renamed"), name)
    }

    /// `results.N` for the harness row `name`.
    fn row(doc: &Value, name: &str) -> String {
        let rows = doc.get("results").and_then(Value::as_array).unwrap();
        let named = |r: &Value| r.get("name").and_then(Value::as_str) == Some(name);
        let at = rows.iter().position(named);
        format!(
            "results.{}",
            at.unwrap_or_else(|| panic!("no row '{name}'"))
        )
    }

    fn gate(suite: &Suite, doc: &Value) -> Result<Vec<String>, String> {
        check(suite, &doc.to_pretty())
    }

    /// Each mutant must fail the gate with a message naming its subject.
    fn breaches<'a>(suite: &Suite, cases: impl IntoIterator<Item = (Value, &'a str)>) {
        for (mutant, subject) in cases {
            let err = gate(suite, &mutant).expect_err(subject);
            assert!(err.contains(subject), "expected '{subject}' in: {err}");
        }
    }

    /// The values just outside each edge of `span`: a closed edge is
    /// itself inside, an open one itself outside.
    fn outside((low, high): Span) -> Vec<f64> {
        let step = |edge, outward: f64| match edge {
            Bound::Included(x) => Some(x + outward),
            Bound::Excluded(x) => Some(x),
            Bound::Unbounded => None,
        };
        [step(low, -1.0), step(high, 1.0)]
            .into_iter()
            .flatten()
            .collect()
    }

    /// Every way to break `rule` in `doc` (one edit each), with the
    /// subject the failure message must name. The negative cases of the
    /// old per-kind validators, as data: the same fields are named.
    fn violations<'a>(rule: &'a Rule, doc: &Value) -> Vec<(Value, &'a str)> {
        // The first row that is not a single-shot scale row.
        let rows = doc.get("results").and_then(Value::as_array);
        let regular = rows.and_then(|rows| rows.iter().position(|r| !is_scale(r)));
        let regular = format!("results.{}", regular.unwrap_or_default());
        let first = |key: &str| format!("{regular}.{key}");
        match *rule {
            HarnessRows => {
                // Two samples and no marker is a truncated measurement,
                // and `"scale": false` is not a marker.
                let two = with(doc, &first("samples"), 2u32);
                let unmarked = with(&two, &first("scale"), false);
                let bare = Value::obj([("name", Value::str("x"))]);
                vec![
                    (two, "\"scale\": true"),
                    (unmarked, "sample"),
                    (with(doc, &first("samples"), 0u32), "no samples"),
                    (with(doc, &first("min_ns"), 1e15), "min_ns > max_ns"),
                    (with(doc, &first("p50_ns"), 0u32), "p50_ns"),
                    (with(doc, &first("p50_ns"), 1e15), "p50_ns"),
                    (with(doc, &first("mean_ns"), 0u32), "mean_ns"),
                    (with(doc, &first("mean_ns"), 1e15), "mean_ns"),
                    (
                        with(doc, first("name").trim_end_matches(".name"), bare),
                        "row 'x'",
                    ),
                    unset(doc, "results"),
                    set(doc, "results", Value::Arr(Vec::new())),
                ]
            }
            Row(name) => vec![drop_row(doc, name)],
            ScaleRow(name) => {
                // The row must exist and carry the marker, not sneak a
                // single-sample measurement past the harness floor.
                let marker = format!("{}.scale", row(doc, name));
                vec![
                    drop_row(doc, name),
                    (edit(doc, &marker, None), name),
                    (with(doc, &marker, false), name),
                ]
            }
            RowMinNs(name, span) => {
                // Every statistic moves with min_ns, so the row stays
                // well-formed and only the span is breached.
                let at = row(doc, name);
                let mut broken = vec![drop_row(doc, name)];
                broken.extend(outside(span).into_iter().map(|v| {
                    let stats = ["min_ns", "p50_ns", "mean_ns", "max_ns"];
                    let moved = stats
                        .iter()
                        .fold(doc.clone(), |d, key| with(&d, &format!("{at}.{key}"), v));
                    (moved, name)
                }));
                broken
            }
            Num(key, span) | NumFullRun(key, span) => {
                let mut broken = vec![unset(doc, key)];
                broken.extend(outside(span).into_iter().map(|v| set(doc, key, v)));
                broken
            }
            Flag(key, want) => vec![set(doc, key, !want), unset(doc, key)],
            Ordered(low, high) => {
                let above = num(doc, high).unwrap() + 1.0;
                vec![set(doc, low, above), unset(doc, high)]
            }
            Rule::TraceSample => {
                let sample = doc.get("trace_sample").and_then(Value::as_array).unwrap();
                let metadata = |ev: &Value| ev.get("ph") == Some(&Value::str("M"));
                let timeline = sample.iter().position(|ev| !metadata(ev)).unwrap();
                let record = format!("trace_sample.{timeline}");
                vec![
                    // Unknown trace_event phase in the sampled export.
                    (
                        with(doc, &format!("{record}.ph"), "Q"),
                        "unknown trace_event phase 'Q'",
                    ),
                    // A timeline record without a timestamp.
                    (edit(doc, &format!("{record}.ts"), None), "'ts'"),
                    (edit(doc, &format!("{record}.pid"), None), "'pid'"),
                    // An empty sample validates nothing.
                    set(doc, "trace_sample", Value::Arr(Vec::new())),
                    unset(doc, "trace_sample"),
                ]
            }
        }
    }

    /// The committed document of `suite`, from the repository root.
    fn committed(suite: &Suite) -> Value {
        let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), suite.file);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        Value::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// What plain `cargo test` shares with the CI `bench-check` step.
    #[test]
    fn committed_documents_pass_the_gate() {
        // The gate knows its documents from the tree: a suite whose
        // document was deleted, or a document that neither a suite nor
        // the experiment comparison checks, fails here.
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        let on_disk: BTreeSet<String> = std::fs::read_dir(&root)
            .unwrap_or_else(|e| panic!("{root}: {e}"))
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        let experiments = EXPERIMENT_DOCUMENTS.iter().map(|(_, file)| *file);
        let gated: BTreeSet<String> = SUITES
            .iter()
            .map(|s| s.file)
            .chain(experiments)
            .map(String::from)
            .collect();
        assert_eq!(
            on_disk, gated,
            "BENCH_*.json at the root vs SUITES[].file and EXPERIMENT_DOCUMENTS"
        );
        for suite in SUITES {
            let notes =
                gate(suite, &committed(suite)).unwrap_or_else(|e| panic!("{}: {e}", suite.file));
            assert_eq!(notes.len(), 1 + suite.rules.len(), "one note per rule");
        }
    }

    /// Every rule of every suite bites: each of its violations, applied
    /// to the real committed document, fails the gate naming the subject.
    #[test]
    fn every_rule_rejects_its_violations_of_the_committed_document() {
        for suite in SUITES {
            let doc = committed(suite);
            for rule in suite.rules {
                breaches(suite, violations(rule, &doc));
            }
        }
    }

    /// A document straight from the one writer passes, and the sample
    /// floor binds it.
    #[test]
    fn sample_floor_enforced_unless_scale_marked() {
        let clustering = suite("clustering");
        let mut doc = BenchDoc::new(clustering.suite, "fixture");
        doc.harness_rows(&[BenchStats::example("clustering/scaling/dense-200", false)])
            .set("dense_200_speedup_vs_reference", 11.6)
            .set("mysql_x80_over_x40", 4.1);
        let doc = doc.to_value();
        assert_eq!(gate(clustering, &doc).map(|notes| notes.len()), Ok(4));
        breaches(clustering, violations(&HarnessRows, &doc));
        // A two-sample row explicitly marked as a scale run passes.
        let marked = with(
            &with(&doc, "results.0.samples", 2u32),
            "results.0.scale",
            true,
        );
        assert!(gate(clustering, &marked).is_ok());
    }

    #[test]
    fn corrupted_json_fails() {
        // Truncated write — the exact failure mode the gate exists for.
        let text = committed(suite("urr")).to_pretty();
        let err = check(suite("urr"), &text[..40]).unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");
    }

    #[test]
    fn wrong_suite_fails() {
        breaches(suite("sim"), [(committed(suite("urr")), "wrong suite")]);
    }

    #[test]
    fn smoke_trace_documents_skip_only_the_overhead_budget() {
        let trace = suite("trace");
        // Debug smoke builds are noise-dominated, but the number stays.
        let smoke = with(
            &with(&committed(trace), "overhead_pct", 80.0),
            "smoke",
            true,
        );
        assert!(gate(trace, &smoke).is_ok());
        breaches(trace, [unset(&smoke, "overhead_pct")]);
    }
}
