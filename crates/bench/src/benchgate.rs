//! Validation of the committed `BENCH_*.json` documents.
//!
//! CI smoke steps regenerate benchmark JSONs and upload them, but the
//! *committed* copies in the repository root are what EXPERIMENTS.md
//! and the README cite — and nothing used to stop them from silently
//! drifting (stale schema after a harness change, hand-mangled numbers,
//! a truncated write). The `repro bench-check` subcommand — and the
//! `committed_documents_pass_the_gate` unit test — run [`check`] over
//! every committed document and fail when one no longer parses, no
//! longer matches the expected schema, or no longer satisfies the
//! invariants the CI smokes rely on.
//!
//! What each document must satisfy is data: [`SUITES`] lists, per
//! document, its file, its `suite` name and a few [`Rule`]s from a
//! small closed set — harness rows well-formed, a row present, a row
//! marked `scale`, a scalar within a span, a flag true or false, a
//! p50 ≤ p99 pair, a converged sweep grid — and [`check`] is one
//! interpreter over that table. Gating a new document is one more
//! [`Suite`] entry. Two checks are genuinely logic and stay plain
//! functions the table names: the rollback grid's containment argument
//! and the `trace_sample` schema.
//!
//! Harness rows must carry at least [`MIN_SAMPLES`] samples unless
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
    /// [`MIN_SAMPLES`] samples unless marked `scale`.
    HarnessRows,
    /// A `results` row of this name exists.
    Row(&'static str),
    /// A `results` row of this name exists and is marked `"scale":
    /// true` (a deliberate single-shot).
    ScaleRow(&'static str),
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
    /// Every `results` row is a sweep cell — a `protocol`, these
    /// numeric fields, `"converged": true` — and the document's
    /// `all_converged` flag agrees with the rows.
    Grid(&'static [&'static str]),
    /// The rollback grid's containment argument (`rollback_containment`).
    RollbackContainment,
    /// The embedded Chrome `trace_event` sample's schema
    /// (`trace_sample_schema`).
    TraceSample,
}

use Rule::{Flag, Grid, HarnessRows, Num, NumFullRun, Ordered, Row, ScaleRow};

/// One committed benchmark document and what it must satisfy.
#[derive(Debug)]
pub struct Suite {
    /// The committed file name in the repository root.
    pub file: &'static str,
    /// The `suite` value the document must carry.
    pub suite: &'static str,
    /// Its invariants, in the order they are checked.
    pub rules: &'static [Rule],
}

/// Every committed document.
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
            Num("speedup_100k_vs_reference.NoStaging", at_least(1.0)),
            Num("speedup_100k_vs_reference.Balanced", at_least(1.0)),
            Num("speedup_100k_vs_reference.FrontLoading", at_least(1.0)),
            Flag("balanced_1m_under_10s", true),
            Num("balanced_1m_seconds", below(10.0)),
            // Parallel-driver rows: the w1/w8 pair the headline speedup
            // is computed from must exist, and the 1M speedup must stay
            // above its regression floor. The floor is deliberately
            // below the committed figure (~1.7x, measured run-only on a
            // single-core host where the gain is purely algorithmic —
            // batched pass absorption, placement merge) so runner noise
            // cannot flake the gate while a real regression toward 1.0x
            // still fails loudly.
            Row("sim/1m/parallel/w1/Balanced"),
            Row("sim/1m/parallel/w8/Balanced"),
            Num("parallel_speedup_1m_w8_vs_w1", at_least(1.25)),
            Flag("balanced_10m_under_10s", true),
            Num("balanced_10m_seconds", below(10.0)),
        ],
    },
    Suite {
        file: "BENCH_faults.json",
        suite: "fault-sweep",
        rules: &[Grid(&[
            "loss_pct",
            "failed_tests",
            "msgs_dropped",
            "retries_sent",
            "rep_timeouts",
        ])],
    },
    Suite {
        file: "BENCH_sweep.json",
        suite: "sim-sweep",
        rules: &[
            Num("workers", at_least(1.0)),
            Grid(&[
                "threshold",
                "loss_pct",
                "failed_tests",
                "escaped",
                "wall_ms",
            ]),
        ],
    },
    Suite {
        file: "BENCH_urr.json",
        suite: "urr-perf",
        rules: &[
            HarnessRows,
            Num("ingest_speedup_100k_vs_reference", at_least(1.0)),
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
        file: "BENCH_drift.json",
        suite: "drift-perf",
        rules: &[
            HarnessRows,
            Row("drift/100k/batch-engine"),
            Row("drift/100k/reference-loop"),
            Row("drift/1m/batch-engine"),
            // The committed document must come from a full run: smoke
            // fleets are far too small for the speedup claim to mean
            // anything.
            Flag("smoke", false),
            Num("speedup_100k_vs_reference", at_least(5.0)),
            Ordered("recluster_p50_ns", "recluster_p99_ns"),
            Num("moves_per_sec", above(0.0)),
            // The run cross-checks the engine's published drift
            // counters against the reference plane's; a mismatch means
            // the measured workloads were not equivalent.
            Flag("drift_counters_match", true),
        ],
    },
    Suite {
        file: "BENCH_rollback.json",
        suite: "rollback-sweep",
        rules: &[
            Rule::RollbackContainment,
            Flag("all_good_converged", true),
            Flag("all_bad_contained", true),
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

/// The rollback grid's containment argument: every *good*-release row
/// converged with no rollback (the guard must not false-positive a
/// healthy fleet); every *bad*-release row contained — aborted with
/// exposure inside the first-cohort limit, or converged through the
/// vendor-fix path without one; and every bad `canary` row
/// specifically rolled back (the headline containment claim), of which
/// there must be at least one.
fn rollback_containment(doc: &Value) -> Result<String, String> {
    let rows = results(doc)?;
    let mut bad_canary = 0usize;
    for row in rows {
        let strategy = string(row, "strategy")?;
        let loss = num(row, "loss_pct")?;
        let release = string(row, "release")?;
        let label = format!("{strategy}/{release}@{loss}%");
        let in_row = |e: String| format!("{label}: {e}");
        if release != "good" && release != "bad" {
            return Err(format!("{label}: unknown release kind '{release}'"));
        }
        if num(row, "machines").map_err(in_row)? < 1.0 {
            return Err(format!("{label}: empty fleet"));
        }
        let exposed = num(row, "exposed").map_err(in_row)?;
        let limit = num(row, "exposure_limit").map_err(in_row)?;
        let converged = boolean(row, "converged").map_err(in_row)?;
        let rolled_back = boolean(row, "rolled_back").map_err(in_row)?;
        if release == "good" {
            if rolled_back {
                return Err(format!(
                    "{label}: the guard aborted a good release (false positive)"
                ));
            }
            if !converged {
                return Err(format!("{label}: good release did not converge"));
            }
            continue;
        }
        if strategy == "canary" {
            bad_canary += 1;
            if !rolled_back {
                return Err(format!(
                    "{label}: a guarded canary must abort a bad release"
                ));
            }
        }
        if rolled_back {
            if exposed > limit {
                return Err(format!(
                    "{label}: rollback exposed {exposed} machines, over the {limit} \
                     first-cohort limit"
                ));
            }
        } else if !converged {
            return Err(format!(
                "{label}: bad release neither rolled back nor converged"
            ));
        }
    }
    if bad_canary == 0 {
        return Err(
            "no bad-release canary rows: the headline containment claim is untested".to_string(),
        );
    }
    Ok(format!(
        "{} sweep rows; {bad_canary} bad canary rows all aborted within the cohort limit",
        rows.len()
    ))
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
        Grid(numeric) => {
            let rows = results(doc)?;
            for row in rows {
                let in_cell = |e: String| format!("{}: {e}", row.to_compact());
                string(row, "protocol").map_err(in_cell)?;
                for key in numeric {
                    num(row, key).map_err(in_cell)?;
                }
                if !boolean(row, "converged").map_err(in_cell)? {
                    return Err(in_cell("did not converge".to_string()));
                }
            }
            if !boolean(doc, "all_converged")? {
                return Err("'all_converged' is false while every row converged".to_string());
            }
            Ok(format!(
                "{} grid rows, 100% convergence; all_converged agrees",
                rows.len()
            ))
        }
        Rule::RollbackContainment => rollback_containment(doc),
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
        let path = format!("{}.name", row(doc, &[("name", name)]));
        (with(doc, &path, "renamed"), name)
    }

    /// `results.N` for the first row carrying all these string fields.
    fn row(doc: &Value, fields: &[(&str, &str)]) -> String {
        let has = |r: &Value, (k, v): &(&str, &str)| r.get(k).and_then(Value::as_str) == Some(v);
        let rows = doc.get("results").and_then(Value::as_array).unwrap();
        let at = rows.iter().position(|r| fields.iter().all(|f| has(r, f)));
        format!(
            "results.{}",
            at.unwrap_or_else(|| panic!("no row with {fields:?}"))
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
        // `doc` with `key` of the row at `path` replaced: breaks `why`.
        let flip = |path: &str, key: &str, new: Value, why: &'a str| {
            (with(doc, &format!("{path}.{key}"), new), why)
        };
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
                let marker = format!("{}.scale", row(doc, &[("name", name)]));
                vec![
                    drop_row(doc, name),
                    (edit(doc, &marker, None), name),
                    (with(doc, &marker, false), name),
                ]
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
            Grid(numeric) => {
                let mut broken = vec![
                    (with(doc, &first("converged"), false), "did not converge"),
                    // Flag flipped while the rows still say converged.
                    set(doc, "all_converged", false),
                    (edit(doc, &first("protocol"), None), "protocol"),
                ];
                broken.extend(numeric.iter().map(|k| (edit(doc, &first(k), None), *k)));
                broken
            }
            Rule::RollbackContainment => {
                let good = row(doc, &[("release", "good")]);
                let canary = row(doc, &[("release", "bad"), ("strategy", "canary")]);
                let staged = row(doc, &[("release", "bad"), ("strategy", "staged")]);
                let is_canary = |r: &&Value| r.get("strategy") == Some(&Value::str("canary"));
                let rows = rows.expect("grid rows").iter();
                let others = Value::arr(rows.filter(|r| !is_canary(r)).cloned());
                vec![
                    // The guard aborted a good release, or it never converged.
                    flip(&good, "rolled_back", true.into(), "false positive"),
                    flip(&good, "converged", false.into(), "did not converge"),
                    // Exposure over the first-cohort limit: the abort
                    // fired after the bad release had already widened.
                    flip(&canary, "exposed", 1e9.into(), "first-cohort limit"),
                    // A bad canary that never rolled back.
                    flip(&canary, "rolled_back", false.into(), "must abort"),
                    // A bad staged row that neither rolled back nor
                    // converged: the regression escaped, nothing stopped it.
                    flip(&staged, "converged", false.into(), "neither rolled back"),
                    // Without a bad canary row the headline claim is untested.
                    (with(doc, "results", others), "no bad-release canary"),
                    flip(&good, "release", "ugly".into(), "unknown release kind"),
                    flip(&good, "machines", 0u32.into(), "empty fleet"),
                    (edit(doc, &format!("{canary}.exposed"), None), "'exposed'"),
                ]
            }
            Rule::TraceSample => {
                let sample = doc.get("trace_sample").and_then(Value::as_array).unwrap();
                let metadata = |ev: &Value| ev.get("ph") == Some(&Value::str("M"));
                let timeline = sample.iter().position(|ev| !metadata(ev)).unwrap();
                let record = format!("trace_sample.{timeline}");
                vec![
                    // Unknown trace_event phase in the sampled export.
                    flip(&record, "ph", "Q".into(), "unknown trace_event phase 'Q'"),
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
        assert_eq!(SUITES.len(), 9);
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
