//! Validation of the committed `BENCH_*.json` documents.
//!
//! CI smoke steps regenerate benchmark JSONs and upload them, but the
//! *committed* copies in the repository root are what EXPERIMENTS.md
//! and the README cite — and nothing used to stop them from silently
//! drifting (stale schema after a harness change, hand-mangled numbers,
//! a truncated write). The `repro bench-check` subcommand runs the
//! checks in this module over every committed document and fails the
//! build when one no longer parses, no longer matches the expected
//! schema, or no longer satisfies the invariants the CI smokes rely on:
//!
//! * `BENCH_clustering.json` — harness rows well-formed, dense-200
//!   speedup vs the naive reference ≥ 5, and the replicated MySQL
//!   fleet's cost growing at most 6× from 40 to 80 copies (quadratic
//!   is 4; the pre-cache merge loop measured ≈ 7);
//! * `BENCH_sim.json` — harness rows well-formed, every protocol's 100k
//!   speedup vs the string-keyed reference ≥ 1.0, the parallel w1/w8
//!   rows present with the 1M w8-vs-w1 speedup above its regression
//!   floor, and both the 1M (sequential) and 10M (parallel, single
//!   `scale` sample) Balanced runs under their 10 s budgets;
//! * `BENCH_faults.json` — sweep rows well-formed, **every** loss rate
//!   converged (and `all_converged` agrees with the rows);
//! * `BENCH_sweep.json` — grid rows well-formed, every protocol ×
//!   threshold × loss cell converged on the shared-arena parallel
//!   driver (and `all_converged` agrees with the rows);
//! * `BENCH_urr.json` — harness rows well-formed, sharded ingest
//!   speedup vs `report::reference` ≥ 1.0, query p50 ≤ p99;
//! * `BENCH_trace.json` — harness rows well-formed, journaling overhead
//!   under the 15% acceptance budget on the full (non-smoke) fleet,
//!   nothing dropped from the journal, and the embedded Chrome
//!   `trace_event` sample schema-valid (string `name`, known `ph`
//!   phase, numeric `pid`/`tid`);
//! * `BENCH_drift.json` — harness rows well-formed and non-smoke, the
//!   100k batch-engine/reference-loop pair present with the batch
//!   engine at least 5x faster, re-cluster-after-drift p50 ≤ p99,
//!   positive sustained moves/s, the 1M scale row present, and the
//!   engine's drift counters verified equal to the reference plane's
//!   during the run (`drift_counters_match`);
//! * `BENCH_rollback.json` — strategy × loss × release rows
//!   well-formed, every *good*-release row converged with no rollback
//!   (the guard must not false-positive a healthy fleet), every
//!   *bad*-release row contained — aborted with exposure inside the
//!   first-cohort limit, or converged through the vendor-fix path
//!   without one — every bad `canary` row specifically rolled back
//!   (the headline containment claim), and `all_good_converged` /
//!   `all_bad_contained` agreeing with the rows;
//! * `BENCH_storage.json` — harness rows well-formed and non-smoke,
//!   the 100k WAL-append (memory and fs), recovery (WAL-only and
//!   snapshot+tail), and mixed read/write rows present plus the 1M
//!   single-shot recovery `scale` row, positive append and mixed
//!   read/write throughput, positive recovery times, and the run's
//!   recovered-equals-live verification flag (`recovered_equal`) true.
//!
//! Harness rows must carry at least [`MIN_SAMPLES`] samples unless
//! they are explicitly marked `"scale": true` — a single-observation
//! statistic is either an intentional scale run or a truncated write,
//! and the marker is how a document says which.
//!
//! Checks are pure functions over the document text so the negative
//! cases (corrupted JSON, missing keys, broken invariants) are unit
//! tested right here in the repro harness.

use std::fmt;

use crate::harness::MIN_SAMPLES;
use mirage_telemetry::json::Value;

/// Which committed benchmark document a text claims to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchKind {
    /// `BENCH_clustering.json` (suite `clustering-perf`).
    Clustering,
    /// `BENCH_sim.json` (suite `sim-perf`).
    Sim,
    /// `BENCH_faults.json` (suite `fault-sweep`).
    Faults,
    /// `BENCH_sweep.json` (suite `sim-sweep`).
    Sweep,
    /// `BENCH_urr.json` (suite `urr-perf`).
    Urr,
    /// `BENCH_trace.json` (suite `trace-overhead`).
    Trace,
    /// `BENCH_drift.json` (suite `drift-perf`).
    Drift,
    /// `BENCH_rollback.json` (suite `rollback-sweep`).
    Rollback,
    /// `BENCH_storage.json` (suite `urr-store-perf`).
    Storage,
}

impl BenchKind {
    /// Every kind with its committed file name.
    pub const ALL: [(BenchKind, &'static str); 9] = [
        (BenchKind::Clustering, "BENCH_clustering.json"),
        (BenchKind::Sim, "BENCH_sim.json"),
        (BenchKind::Faults, "BENCH_faults.json"),
        (BenchKind::Sweep, "BENCH_sweep.json"),
        (BenchKind::Urr, "BENCH_urr.json"),
        (BenchKind::Trace, "BENCH_trace.json"),
        (BenchKind::Drift, "BENCH_drift.json"),
        (BenchKind::Rollback, "BENCH_rollback.json"),
        (BenchKind::Storage, "BENCH_storage.json"),
    ];

    /// The `suite` value the document must carry.
    pub fn suite(self) -> &'static str {
        match self {
            BenchKind::Clustering => "clustering-perf",
            BenchKind::Sim => "sim-perf",
            BenchKind::Faults => "fault-sweep",
            BenchKind::Sweep => "sim-sweep",
            BenchKind::Urr => "urr-perf",
            BenchKind::Trace => "trace-overhead",
            BenchKind::Drift => "drift-perf",
            BenchKind::Rollback => "rollback-sweep",
            BenchKind::Storage => "urr-store-perf",
        }
    }
}

/// Why a benchmark document failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateError(pub String);

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn fail(msg: impl Into<String>) -> GateError {
    GateError(msg.into())
}

fn num(v: &Value, key: &str) -> Result<f64, GateError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| fail(format!("missing or non-numeric field '{key}'")))
}

fn string(v: &Value, key: &str) -> Result<String, GateError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| fail(format!("missing or non-string field '{key}'")))
}

fn boolean(v: &Value, key: &str) -> Result<bool, GateError> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(fail(format!("missing or non-boolean field '{key}'"))),
    }
}

fn results(doc: &Value) -> Result<&[Value], GateError> {
    let rows = doc
        .get("results")
        .and_then(Value::as_array)
        .ok_or_else(|| fail("missing 'results' array"))?;
    if rows.is_empty() {
        return Err(fail("'results' array is empty"));
    }
    Ok(rows)
}

/// Validates one harness-style result row (the shape every `*-perf`
/// suite emits).
fn check_harness_row(row: &Value) -> Result<(), GateError> {
    let name = string(row, "name")?;
    for key in ["samples", "min_ns", "p50_ns", "mean_ns", "max_ns"] {
        let v = num(row, key).map_err(|e| fail(format!("row '{name}': {e}")))?;
        if v < 0.0 {
            return Err(fail(format!("row '{name}': '{key}' is negative")));
        }
    }
    let min = num(row, "min_ns")?;
    let max = num(row, "max_ns")?;
    if min > max {
        return Err(fail(format!("row '{name}': min_ns > max_ns")));
    }
    let samples = num(row, "samples")?;
    if samples < 1.0 {
        return Err(fail(format!("row '{name}': no samples")));
    }
    // Single-observation statistics are only acceptable when the row
    // explicitly says so: `"scale": true` marks an intentional
    // single-shot scale run; anything else under the floor is a
    // truncated or degenerate measurement.
    let scale = matches!(row.get("scale"), Some(Value::Bool(true)));
    if !scale && samples < MIN_SAMPLES as f64 {
        return Err(fail(format!(
            "row '{name}': {samples} sample(s); non-scale rows need at least {MIN_SAMPLES} \
             (mark intentional single-shots with \"scale\": true)"
        )));
    }
    Ok(())
}

/// Parses `text` and checks it is a well-formed, invariant-satisfying
/// document of `kind`. Returns the human-readable check lines on
/// success.
pub fn check(kind: BenchKind, text: &str) -> Result<Vec<String>, GateError> {
    let doc = Value::parse(text).map_err(|e| fail(format!("invalid JSON: {e}")))?;
    if string(&doc, "suite")? != kind.suite() {
        return Err(fail(format!(
            "wrong suite: expected '{}', found '{}'",
            kind.suite(),
            string(&doc, "suite")?
        )));
    }
    let mut notes = vec![format!("suite '{}' present", kind.suite())];
    match kind {
        BenchKind::Clustering => {
            let rows = results(&doc)?;
            for row in rows {
                check_harness_row(row)?;
            }
            notes.push(format!("{} harness rows well-formed", rows.len()));
            let speedup = num(&doc, "dense_200_speedup_vs_reference")?;
            if speedup < 5.0 {
                return Err(fail(format!(
                    "dense-200 speedup vs reference regressed below the 5x floor ({speedup})"
                )));
            }
            notes.push(format!("dense-200 speedup vs reference: {speedup:.2}x"));
            let growth = num(&doc, "mysql_x80_over_x40")?;
            if growth > 6.0 {
                return Err(fail(format!(
                    "mysql-x80 over mysql-x40 grew past the 6x ceiling ({growth}); quadratic is 4"
                )));
            }
            notes.push(format!("mysql-x80 over mysql-x40: {growth:.2}x"));
        }
        BenchKind::Sim => {
            let rows = results(&doc)?;
            for row in rows {
                check_harness_row(row)?;
            }
            notes.push(format!("{} harness rows well-formed", rows.len()));
            let speedups = doc
                .get("speedup_100k_vs_reference")
                .ok_or_else(|| fail("missing 'speedup_100k_vs_reference'"))?;
            for protocol in ["NoStaging", "Balanced", "FrontLoading"] {
                let s = num(speedups, protocol)?;
                if s < 1.0 {
                    return Err(fail(format!(
                        "{protocol}: 100k speedup vs reference regressed below 1.0 ({s})"
                    )));
                }
                notes.push(format!("{protocol} 100k speedup: {s:.2}x"));
            }
            if !boolean(&doc, "balanced_1m_under_10s")? {
                return Err(fail("balanced_1m_under_10s is false"));
            }
            notes.push(format!(
                "1M Balanced run: {:.3} s (< 10 s)",
                num(&doc, "balanced_1m_seconds")?
            ));
            // Parallel-driver rows: the w1/w8 pair the headline speedup
            // is computed from must exist, and the 1M speedup must stay
            // above its regression floor. The floor is deliberately
            // below the committed figure (~1.7x, measured run-only on a
            // single-core host where the gain is purely algorithmic —
            // batched pass absorption, placement merge) so runner noise
            // cannot flake the gate while a real regression toward 1.0x
            // still fails loudly.
            for required in ["sim/1m/parallel/w1/Balanced", "sim/1m/parallel/w8/Balanced"] {
                if !rows
                    .iter()
                    .any(|r| r.get("name").and_then(Value::as_str) == Some(required))
                {
                    return Err(fail(format!("missing harness row '{required}'")));
                }
            }
            let par = num(&doc, "parallel_speedup_1m_w8_vs_w1")?;
            if par < 1.25 {
                return Err(fail(format!(
                    "1M parallel w8-vs-w1 speedup regressed below the 1.25x floor ({par})"
                )));
            }
            notes.push(format!("1M parallel w8 vs w1 speedup: {par:.2}x"));
            if !boolean(&doc, "balanced_10m_under_10s")? {
                return Err(fail("balanced_10m_under_10s is false"));
            }
            notes.push(format!(
                "10M Balanced parallel run: {:.3} s (< 10 s)",
                num(&doc, "balanced_10m_seconds")?
            ));
        }
        BenchKind::Faults => {
            let rows = results(&doc)?;
            for row in rows {
                let protocol = string(row, "protocol")?;
                let loss = num(row, "loss_pct")?;
                for key in [
                    "failed_tests",
                    "msgs_dropped",
                    "retries_sent",
                    "rep_timeouts",
                ] {
                    num(row, key).map_err(|e| fail(format!("{protocol}@{loss}%: {e}")))?;
                }
                if !boolean(row, "converged")? {
                    return Err(fail(format!("{protocol} did not converge at loss {loss}%")));
                }
            }
            notes.push(format!("{} sweep rows, 100% convergence", rows.len()));
            if !boolean(&doc, "all_converged")? {
                return Err(fail("all_converged is false"));
            }
            notes.push("all_converged agrees with the rows".to_string());
        }
        BenchKind::Sweep => {
            let rows = results(&doc)?;
            let workers = num(&doc, "workers")?;
            if workers < 1.0 {
                return Err(fail("sweep ran with no workers"));
            }
            for row in rows {
                let protocol = string(row, "protocol")?;
                let threshold = num(row, "threshold")?;
                let loss = num(row, "loss_pct")?;
                for key in ["failed_tests", "escaped", "wall_ms"] {
                    num(row, key)
                        .map_err(|e| fail(format!("{protocol}@thr{threshold}/{loss}%: {e}")))?;
                }
                if !boolean(row, "converged")? {
                    return Err(fail(format!(
                        "{protocol} did not converge at threshold {threshold}, loss {loss}%"
                    )));
                }
            }
            notes.push(format!(
                "{} grid cells ({workers} workers), 100% convergence",
                rows.len()
            ));
            if !boolean(&doc, "all_converged")? {
                return Err(fail("all_converged is false"));
            }
            notes.push("all_converged agrees with the cells".to_string());
        }
        BenchKind::Urr => {
            let rows = results(&doc)?;
            for row in rows {
                check_harness_row(row)?;
            }
            notes.push(format!("{} harness rows well-formed", rows.len()));
            let speedup = num(&doc, "ingest_speedup_100k_vs_reference")?;
            if speedup < 1.0 {
                return Err(fail(format!(
                    "sharded ingest speedup vs reference regressed below 1.0 ({speedup})"
                )));
            }
            notes.push(format!(
                "sharded ingest speedup vs reference: {speedup:.2}x"
            ));
            let query = doc
                .get("query")
                .ok_or_else(|| fail("missing 'query' latency object"))?;
            for q in [
                "top_k",
                "failure_groups",
                "cluster_rates",
                "first_seen_window",
            ] {
                let p50 = num(query, &format!("{q}_p50_ns"))?;
                let p99 = num(query, &format!("{q}_p99_ns"))?;
                if p50 > p99 {
                    return Err(fail(format!("query '{q}': p50 > p99")));
                }
            }
            notes.push("query p50/p99 pairs present and ordered".to_string());
        }
        BenchKind::Trace => {
            let rows = results(&doc)?;
            for row in rows {
                check_harness_row(row)?;
            }
            for required in ["trace/plain-run", "trace/journaled-run"] {
                if !rows
                    .iter()
                    .any(|r| r.get("name").and_then(Value::as_str) == Some(required))
                {
                    return Err(fail(format!("missing harness row '{required}'")));
                }
            }
            notes.push(format!("{} harness rows well-formed", rows.len()));
            let overhead = num(&doc, "overhead_pct")?;
            if !boolean(&doc, "smoke")? {
                if overhead >= 15.0 {
                    return Err(fail(format!(
                        "journaling overhead {overhead}% breaches the 15% acceptance budget"
                    )));
                }
                notes.push(format!("journaling overhead {overhead}% (< 15%)"));
            }
            if num(&doc, "journal_dropped")? != 0.0 {
                return Err(fail("journal dropped entries (spill should retain all)"));
            }
            if num(&doc, "journal_total")? < 1.0 {
                return Err(fail("journal recorded no entries"));
            }
            if num(&doc, "trace_events")? < 1.0 {
                return Err(fail("exported trace has no events"));
            }
            let sample = doc
                .get("trace_sample")
                .and_then(Value::as_array)
                .ok_or_else(|| fail("missing 'trace_sample' array"))?;
            if sample.is_empty() {
                return Err(fail("'trace_sample' array is empty"));
            }
            for (i, ev) in sample.iter().enumerate() {
                let name =
                    string(ev, "name").map_err(|e| fail(format!("trace_sample[{i}]: {e}")))?;
                let ph = string(ev, "ph").map_err(|e| fail(format!("trace_sample[{i}]: {e}")))?;
                // The phases the exporter emits: metadata, async
                // begin/end, complete slices, and instants.
                if !["M", "b", "e", "X", "i"].contains(&ph.as_str()) {
                    return Err(fail(format!(
                        "trace_sample[{i}] ('{name}'): unknown trace_event phase '{ph}'"
                    )));
                }
                for key in ["pid", "tid"] {
                    num(ev, key).map_err(|e| fail(format!("trace_sample[{i}] ('{name}'): {e}")))?;
                }
                // Every non-metadata record is a timeline record and
                // needs a timestamp.
                if ph != "M" {
                    num(ev, "ts")
                        .map_err(|e| fail(format!("trace_sample[{i}] ('{name}'): {e}")))?;
                }
            }
            notes.push(format!(
                "{} sampled trace_event records schema-valid",
                sample.len()
            ));
        }
        BenchKind::Drift => {
            let rows = results(&doc)?;
            for row in rows {
                check_harness_row(row)?;
            }
            for required in [
                "drift/100k/batch-engine",
                "drift/100k/reference-loop",
                "drift/1m/batch-engine",
            ] {
                if !rows
                    .iter()
                    .any(|r| r.get("name").and_then(Value::as_str) == Some(required))
                {
                    return Err(fail(format!("missing harness row '{required}'")));
                }
            }
            notes.push(format!("{} harness rows well-formed", rows.len()));
            // The committed document must come from a full run: smoke
            // fleets are far too small for the speedup claim to mean
            // anything.
            if boolean(&doc, "smoke")? {
                return Err(fail(
                    "committed drift document is a --smoke run; commit a full run",
                ));
            }
            let speedup = num(&doc, "speedup_100k_vs_reference")?;
            if speedup < 5.0 {
                return Err(fail(format!(
                    "100k batch-engine speedup vs reference loop below the 5x floor ({speedup})"
                )));
            }
            notes.push(format!("100k batch vs reference speedup: {speedup:.2}x"));
            let p50 = num(&doc, "recluster_p50_ns")?;
            let p99 = num(&doc, "recluster_p99_ns")?;
            if p50 > p99 {
                return Err(fail("re-cluster-after-drift latency: p50 > p99"));
            }
            notes.push(format!(
                "re-cluster-after-drift p50/p99 present and ordered ({p50:.0}/{p99:.0} ns)"
            ));
            let moves = num(&doc, "moves_per_sec")?;
            if moves <= 0.0 {
                return Err(fail("sustained moves/s is not positive"));
            }
            notes.push(format!("sustained {moves:.0} moves/s"));
            // The run cross-checks the engine's published drift
            // counters against the reference plane's; a mismatch means
            // the measured workloads were not equivalent.
            if !boolean(&doc, "drift_counters_match")? {
                return Err(fail(
                    "drift_counters_match is false: measured planes diverged",
                ));
            }
            notes.push("drift counters verified equal across planes".to_string());
        }
        BenchKind::Rollback => {
            let rows = results(&doc)?;
            let mut bad_canary = 0usize;
            for row in rows {
                let strategy = string(row, "strategy")?;
                let loss = num(row, "loss_pct")?;
                let release = string(row, "release")?;
                let label = format!("{strategy}/{release}@{loss}%");
                if release != "good" && release != "bad" {
                    return Err(fail(format!("{label}: unknown release kind '{release}'")));
                }
                let machines = num(row, "machines").map_err(|e| fail(format!("{label}: {e}")))?;
                if machines < 1.0 {
                    return Err(fail(format!("{label}: empty fleet")));
                }
                let exposed = num(row, "exposed").map_err(|e| fail(format!("{label}: {e}")))?;
                let limit =
                    num(row, "exposure_limit").map_err(|e| fail(format!("{label}: {e}")))?;
                let converged =
                    boolean(row, "converged").map_err(|e| fail(format!("{label}: {e}")))?;
                let rolled_back =
                    boolean(row, "rolled_back").map_err(|e| fail(format!("{label}: {e}")))?;
                if release == "good" {
                    if rolled_back {
                        return Err(fail(format!(
                            "{label}: the guard aborted a good release (false positive)"
                        )));
                    }
                    if !converged {
                        return Err(fail(format!("{label}: good release did not converge")));
                    }
                } else {
                    if strategy == "canary" {
                        bad_canary += 1;
                        if !rolled_back {
                            return Err(fail(format!(
                                "{label}: a guarded canary must abort a bad release"
                            )));
                        }
                    }
                    if rolled_back {
                        if exposed > limit {
                            return Err(fail(format!(
                                "{label}: rollback exposed {exposed} machines, over the \
                                 {limit} first-cohort limit"
                            )));
                        }
                    } else if !converged {
                        return Err(fail(format!(
                            "{label}: bad release neither rolled back nor converged"
                        )));
                    }
                }
            }
            if bad_canary == 0 {
                return Err(fail(
                    "no bad-release canary rows: the headline containment claim is untested",
                ));
            }
            notes.push(format!(
                "{} sweep rows; {bad_canary} bad canary rows all aborted within the cohort limit",
                rows.len()
            ));
            if !boolean(&doc, "all_good_converged")? {
                return Err(fail("all_good_converged is false"));
            }
            if !boolean(&doc, "all_bad_contained")? {
                return Err(fail("all_bad_contained is false"));
            }
            notes.push("all_good_converged / all_bad_contained agree with the rows".to_string());
        }
        BenchKind::Storage => {
            let rows = results(&doc)?;
            for row in rows {
                check_harness_row(row)?;
            }
            for required in [
                "storage/wal/append-memory-100k",
                "storage/wal/append-fs-100k",
                "storage/recover/wal-100k",
                "storage/recover/snapshot-100k",
                "storage/serve/mixed-read-write-100k",
            ] {
                if !rows
                    .iter()
                    .any(|r| r.get("name").and_then(Value::as_str) == Some(required))
                {
                    return Err(fail(format!("missing harness row '{required}'")));
                }
            }
            // The 1M recovery measurement is a deliberate single-shot;
            // it must both exist and carry the scale marker.
            let scale_row = rows
                .iter()
                .find(|r| {
                    r.get("name").and_then(Value::as_str) == Some("storage/recover/snapshot-1m")
                })
                .ok_or_else(|| fail("missing harness row 'storage/recover/snapshot-1m'"))?;
            if !matches!(scale_row.get("scale"), Some(Value::Bool(true))) {
                return Err(fail(
                    "'storage/recover/snapshot-1m' is not marked \"scale\": true",
                ));
            }
            notes.push(format!(
                "{} harness rows well-formed incl. the 1M single-shot recovery row",
                rows.len()
            ));
            // Smoke volumes are far too small for the pinned recovery
            // and throughput numbers to mean anything.
            if boolean(&doc, "smoke")? {
                return Err(fail(
                    "committed storage document is a --smoke run; commit a full run",
                ));
            }
            // The run replays its own journal and compares every query
            // surface of the recovered repository against the live one;
            // a false flag means the WAL+snapshot path lost data.
            if !boolean(&doc, "recovered_equal")? {
                return Err(fail(
                    "recovered_equal is false: recovery diverged from the live repository",
                ));
            }
            notes
                .push("recovered repository verified equal to live across all queries".to_string());
            for key in [
                "wal_append_memory_100k_reports_per_sec",
                "wal_append_fs_100k_reports_per_sec",
                "mixed_reads_per_sec",
                "mixed_writes_per_sec",
            ] {
                let v = num(&doc, key)?;
                if v <= 0.0 {
                    return Err(fail(format!("'{key}' is not positive ({v})")));
                }
            }
            notes.push(format!(
                "append {:.0}/s mem, {:.0}/s fs; mixed {:.0} reads/s against {:.0} writes/s",
                num(&doc, "wal_append_memory_100k_reports_per_sec")?,
                num(&doc, "wal_append_fs_100k_reports_per_sec")?,
                num(&doc, "mixed_reads_per_sec")?,
                num(&doc, "mixed_writes_per_sec")?,
            ));
            for key in [
                "recovery_wal_100k_ms",
                "recovery_snapshot_100k_ms",
                "recovery_snapshot_1m_ms",
            ] {
                let v = num(&doc, key)?;
                if v <= 0.0 {
                    return Err(fail(format!("'{key}' is not positive ({v})")));
                }
            }
            notes.push(format!(
                "recovery {:.1} ms (WAL 100k), {:.1} ms (snapshot 100k), {:.1} ms (snapshot 1M)",
                num(&doc, "recovery_wal_100k_ms")?,
                num(&doc, "recovery_snapshot_100k_ms")?,
                num(&doc, "recovery_snapshot_1m_ms")?,
            ));
        }
    }
    Ok(notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness_row(name: &str) -> String {
        format!(
            "{{\"name\": \"{name}\", \"samples\": 5, \"min_ns\": 100, \
             \"p50_ns\": 120, \"mean_ns\": 130, \"max_ns\": 200}}"
        )
    }

    fn scale_row(name: &str) -> String {
        format!(
            "{{\"name\": \"{name}\", \"samples\": 1, \"min_ns\": 100, \
             \"p50_ns\": 100, \"mean_ns\": 100, \"max_ns\": 100, \"scale\": true}}"
        )
    }

    fn sim_doc(par_speedup: f64) -> String {
        format!(
            "{{\"suite\": \"sim-perf\", \"results\": [{}, {}, {}, {}], \
             \"speedup_100k_vs_reference\": {{\"NoStaging\": 7.2, \"Balanced\": 9.1, \
             \"FrontLoading\": 10.7}}, \"balanced_1m_seconds\": 0.26, \
             \"balanced_1m_under_10s\": true, \
             \"parallel_speedup_100k_w8_vs_w1\": 1.5, \
             \"parallel_speedup_1m_w8_vs_w1\": {par_speedup}, \
             \"balanced_10m_seconds\": 4.2, \"balanced_10m_under_10s\": true}}",
            harness_row("sim/100k/interned/Balanced"),
            harness_row("sim/1m/parallel/w1/Balanced"),
            harness_row("sim/1m/parallel/w8/Balanced"),
            scale_row("sim/10m/parallel/w8/Balanced"),
        )
    }

    fn sweep_doc(converged: bool) -> String {
        format!(
            "{{\"suite\": \"sim-sweep\", \"smoke\": false, \"workers\": 8, \"results\": [\
             {{\"protocol\": \"Balanced\", \"threshold\": 0.9, \"loss_pct\": 20, \
             \"converged\": {converged}, \"completion_time\": 16273, \"failed_tests\": 5, \
             \"escaped\": 0, \"wall_ms\": 39.8}}], \"all_converged\": {converged}}}"
        )
    }

    fn urr_doc(speedup: f64) -> String {
        format!(
            "{{\"suite\": \"urr-perf\", \"results\": [{}],\n\
             \"ingest_speedup_100k_vs_reference\": {speedup},\n\
             \"query\": {{\"top_k_p50_ns\": 1, \"top_k_p99_ns\": 2,\n\
             \"failure_groups_p50_ns\": 1, \"failure_groups_p99_ns\": 2,\n\
             \"cluster_rates_p50_ns\": 1, \"cluster_rates_p99_ns\": 2,\n\
             \"first_seen_window_p50_ns\": 1, \"first_seen_window_p99_ns\": 2}}}}",
            harness_row("urr/ingest/sharded-100k")
        )
    }

    fn clustering_doc(speedup: f64, growth: f64) -> String {
        format!(
            "{{\"suite\": \"clustering-perf\", \"results\": [{}], \
             \"dense_200_speedup_vs_reference\": {speedup}, \
             \"mysql_x80_over_x40\": {growth}}}",
            harness_row("clustering/scaling/dense-200")
        )
    }

    #[test]
    fn valid_documents_pass() {
        assert!(check(BenchKind::Clustering, &clustering_doc(11.6, 4.1)).is_ok());

        let notes = check(BenchKind::Sim, &sim_doc(1.7)).unwrap();
        assert!(
            notes.iter().any(|n| n.contains("parallel w8 vs w1")),
            "{notes:?}"
        );

        let faults = "{\"suite\": \"fault-sweep\", \"results\": [\
             {\"protocol\": \"Balanced\", \"loss_pct\": 30, \"converged\": true, \
             \"completion_time\": 100, \"failed_tests\": 3, \"msgs_dropped\": 5, \
             \"retries_sent\": 4, \"rep_timeouts\": 0}], \"all_converged\": true}";
        assert!(check(BenchKind::Faults, faults).is_ok());

        assert!(check(BenchKind::Sweep, &sweep_doc(true)).is_ok());

        assert!(check(BenchKind::Urr, &urr_doc(6.4)).is_ok());
    }

    #[test]
    fn sample_floor_enforced_unless_scale_marked() {
        // Two samples and no marker: a truncated measurement.
        let two_samples = "{\"suite\": \"clustering-perf\", \"results\": [\
             {\"name\": \"r\", \"samples\": 2, \"min_ns\": 100, \"p50_ns\": 120, \
             \"mean_ns\": 130, \"max_ns\": 200}], \
             \"dense_200_speedup_vs_reference\": 11.6, \"mysql_x80_over_x40\": 4.1}";
        let err = check(BenchKind::Clustering, two_samples).unwrap_err();
        assert!(err.to_string().contains("\"scale\": true"), "{err}");

        // The same row explicitly marked as a scale run passes.
        let marked = two_samples.replace("\"samples\": 2", "\"samples\": 2, \"scale\": true");
        assert!(check(BenchKind::Clustering, &marked).is_ok());

        // `"scale": false` is not a marker.
        let unmarked = two_samples.replace("\"samples\": 2", "\"samples\": 2, \"scale\": false");
        assert!(check(BenchKind::Clustering, &unmarked).is_err());
    }

    #[test]
    fn parallel_speedup_floor_enforced() {
        let err = check(BenchKind::Sim, &sim_doc(1.1)).unwrap_err();
        assert!(err.to_string().contains("1.25x floor"), "{err}");

        // The w1/w8 pair must be present for the headline to mean
        // anything.
        let missing = sim_doc(1.7).replace("sim/1m/parallel/w8/Balanced", "sim/1m/other");
        let err = check(BenchKind::Sim, &missing).unwrap_err();
        assert!(err.to_string().contains("w8"), "{err}");

        // The 10M budget flag is load-bearing.
        let slow10m = sim_doc(1.7).replace(
            "\"balanced_10m_under_10s\": true",
            "\"balanced_10m_under_10s\": false",
        );
        let err = check(BenchKind::Sim, &slow10m).unwrap_err();
        assert!(err.to_string().contains("balanced_10m_under_10s"), "{err}");
    }

    #[test]
    fn sweep_non_convergence_fails() {
        let err = check(BenchKind::Sweep, &sweep_doc(false)).unwrap_err();
        assert!(err.to_string().contains("did not converge"), "{err}");

        // Flag flipped while the rows still say converged.
        let flag_only =
            sweep_doc(true).replace("\"all_converged\": true", "\"all_converged\": false");
        assert!(check(BenchKind::Sweep, &flag_only).is_err());
    }

    #[test]
    fn corrupted_json_fails() {
        // Truncated write — the exact failure mode the gate exists for.
        let truncated = &urr_doc(6.4)[..40];
        let err = check(BenchKind::Urr, truncated).unwrap_err();
        assert!(err.to_string().contains("invalid JSON"), "{err}");
    }

    #[test]
    fn wrong_suite_fails() {
        let err = check(BenchKind::Sim, &urr_doc(6.4)).unwrap_err();
        assert!(err.to_string().contains("wrong suite"), "{err}");
    }

    #[test]
    fn missing_keys_fail() {
        let no_results = "{\"suite\": \"urr-perf\"}";
        assert!(check(BenchKind::Urr, no_results).is_err());
        let empty_results = "{\"suite\": \"urr-perf\", \"results\": []}";
        assert!(check(BenchKind::Urr, empty_results).is_err());
        let bad_row = "{\"suite\": \"clustering-perf\", \"results\": [{\"name\": \"x\"}], \
             \"dense_200_speedup_vs_reference\": 2.0}";
        let err = check(BenchKind::Clustering, bad_row).unwrap_err();
        assert!(err.to_string().contains("row 'x'"), "{err}");
    }

    #[test]
    fn hand_mangled_invariants_fail() {
        // Speedup edited below 1.0.
        let err = check(BenchKind::Urr, &urr_doc(0.4)).unwrap_err();
        assert!(err.to_string().contains("below 1.0"), "{err}");

        // Clustering: the dense-200 floor, and a merge loop gone
        // super-quadratic again on the replicated MySQL fleet.
        let err = check(BenchKind::Clustering, &clustering_doc(4.2, 4.1)).unwrap_err();
        assert!(err.to_string().contains("5x floor"), "{err}");
        let err = check(BenchKind::Clustering, &clustering_doc(11.6, 7.0)).unwrap_err();
        assert!(err.to_string().contains("6x ceiling"), "{err}");
        let no_growth = clustering_doc(11.6, 4.1).replace("mysql_x80_over_x40", "renamed");
        let err = check(BenchKind::Clustering, &no_growth).unwrap_err();
        assert!(err.to_string().contains("mysql_x80_over_x40"), "{err}");

        // A non-converged sweep row.
        let faults = "{\"suite\": \"fault-sweep\", \"results\": [\
             {\"protocol\": \"Balanced\", \"loss_pct\": 30, \"converged\": false, \
             \"completion_time\": null, \"failed_tests\": 3, \"msgs_dropped\": 5, \
             \"retries_sent\": 4, \"rep_timeouts\": 0}], \"all_converged\": true}";
        let err = check(BenchKind::Faults, faults).unwrap_err();
        assert!(err.to_string().contains("did not converge"), "{err}");

        // all_converged flag flipped while rows still say true.
        let faults = "{\"suite\": \"fault-sweep\", \"results\": [\
             {\"protocol\": \"Balanced\", \"loss_pct\": 0, \"converged\": true, \
             \"completion_time\": 1, \"failed_tests\": 0, \"msgs_dropped\": 0, \
             \"retries_sent\": 0, \"rep_timeouts\": 0}], \"all_converged\": false}";
        assert!(check(BenchKind::Faults, faults).is_err());

        // min > max in a harness row.
        let sim = "{\"suite\": \"sim-perf\", \"results\": [\
             {\"name\": \"r\", \"samples\": 3, \"min_ns\": 500, \"p50_ns\": 120, \
             \"mean_ns\": 130, \"max_ns\": 200}], \
             \"speedup_100k_vs_reference\": {\"NoStaging\": 2.0, \"Balanced\": 2.0, \
             \"FrontLoading\": 2.0}, \"balanced_1m_seconds\": 0.3, \
             \"balanced_1m_under_10s\": true}";
        let err = check(BenchKind::Sim, sim).unwrap_err();
        assert!(err.to_string().contains("min_ns > max_ns"), "{err}");
    }

    fn trace_doc(overhead: f64, smoke: bool, dropped: u64, ph: &str) -> String {
        format!(
            "{{\"suite\": \"trace-overhead\", \"smoke\": {smoke}, \"machines\": 1000,\n\
             \"results\": [{}, {}],\n\
             \"overhead_pct\": {overhead}, \"journal_total\": 3000,\n\
             \"journal_dropped\": {dropped}, \"trace_events\": 10,\n\
             \"trace_sample\": [\
             {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0}},\
             {{\"name\": \"stage 0\", \"ph\": \"{ph}\", \"id\": 0, \"ts\": 0, \
             \"pid\": 1, \"tid\": 0}}]}}",
            harness_row("trace/plain-run"),
            harness_row("trace/journaled-run"),
        )
    }

    #[test]
    fn valid_trace_document_passes() {
        let notes = check(BenchKind::Trace, &trace_doc(9.1, false, 0, "b")).unwrap();
        assert!(notes.iter().any(|n| n.contains("overhead")), "{notes:?}");
        // Smoke documents skip the overhead budget (debug builds are
        // noise-dominated) but still get the schema checks.
        assert!(check(BenchKind::Trace, &trace_doc(80.0, true, 0, "b")).is_ok());
    }

    #[test]
    fn trace_invariant_breaches_fail() {
        // Overhead over the acceptance budget on a full-fleet document.
        let err = check(BenchKind::Trace, &trace_doc(15.0, false, 0, "b")).unwrap_err();
        assert!(err.to_string().contains("15% acceptance budget"), "{err}");

        // Dropped journal entries: the spill was mis-configured.
        let err = check(BenchKind::Trace, &trace_doc(9.1, false, 7, "b")).unwrap_err();
        assert!(err.to_string().contains("dropped"), "{err}");

        // Unknown trace_event phase in the sampled export.
        let err = check(BenchKind::Trace, &trace_doc(9.1, false, 0, "Q")).unwrap_err();
        assert!(
            err.to_string().contains("unknown trace_event phase"),
            "{err}"
        );

        // A timeline record without a timestamp.
        let no_ts = trace_doc(9.1, false, 0, "b").replace("\"ts\": 0, ", "");
        let err = check(BenchKind::Trace, &no_ts).unwrap_err();
        assert!(err.to_string().contains("'ts'"), "{err}");

        // A required harness row is missing.
        let doc = format!(
            "{{\"suite\": \"trace-overhead\", \"smoke\": false, \
             \"results\": [{}], \"overhead_pct\": 9.1, \"journal_total\": 1, \
             \"journal_dropped\": 0, \"trace_events\": 1, \"trace_sample\": []}}",
            harness_row("trace/plain-run")
        );
        let err = check(BenchKind::Trace, &doc).unwrap_err();
        assert!(err.to_string().contains("trace/journaled-run"), "{err}");
    }

    fn drift_doc(speedup: f64, smoke: bool, p50: u64, p99: u64, counters_match: bool) -> String {
        format!(
            "{{\"suite\": \"drift-perf\", \"smoke\": {smoke}, \"machines\": 100000,\n\
             \"results\": [{}, {}, {}],\n\
             \"speedup_100k_vs_reference\": {speedup},\n\
             \"recluster_p50_ns\": {p50}, \"recluster_p99_ns\": {p99},\n\
             \"moves_per_sec\": 51234.0, \"drift_counters_match\": {counters_match}}}",
            harness_row("drift/100k/batch-engine"),
            harness_row("drift/100k/reference-loop"),
            scale_row("drift/1m/batch-engine"),
        )
    }

    #[test]
    fn valid_drift_document_passes() {
        let notes = check(BenchKind::Drift, &drift_doc(8.4, false, 900, 4200, true)).unwrap();
        assert!(notes.iter().any(|n| n.contains("speedup")), "{notes:?}");
        assert!(notes.iter().any(|n| n.contains("moves/s")), "{notes:?}");
    }

    #[test]
    fn drift_invariant_breaches_fail() {
        // Speedup below the 5x acceptance floor.
        let err = check(BenchKind::Drift, &drift_doc(3.2, false, 900, 4200, true)).unwrap_err();
        assert!(err.to_string().contains("5x floor"), "{err}");

        // A committed smoke run is not an acceptable headline document.
        let err = check(BenchKind::Drift, &drift_doc(8.4, true, 900, 4200, true)).unwrap_err();
        assert!(err.to_string().contains("--smoke"), "{err}");

        // Latency percentiles out of order.
        let err = check(BenchKind::Drift, &drift_doc(8.4, false, 4200, 900, true)).unwrap_err();
        assert!(err.to_string().contains("p50 > p99"), "{err}");

        // The run's cross-plane counter check failed.
        let err = check(BenchKind::Drift, &drift_doc(8.4, false, 900, 4200, false)).unwrap_err();
        assert!(err.to_string().contains("drift_counters_match"), "{err}");

        // The reference pair row is required for the speedup to mean
        // anything.
        let missing =
            drift_doc(8.4, false, 900, 4200, true).replace("drift/100k/reference-loop", "other");
        let err = check(BenchKind::Drift, &missing).unwrap_err();
        assert!(err.to_string().contains("reference-loop"), "{err}");

        // The 1M scale row is part of the committed surface.
        let missing =
            drift_doc(8.4, false, 900, 4200, true).replace("drift/1m/batch-engine", "other");
        let err = check(BenchKind::Drift, &missing).unwrap_err();
        assert!(err.to_string().contains("drift/1m"), "{err}");

        // Zero moves/s means the workload measured nothing.
        let zeroed = drift_doc(8.4, false, 900, 4200, true)
            .replace("\"moves_per_sec\": 51234.0", "\"moves_per_sec\": 0");
        let err = check(BenchKind::Drift, &zeroed).unwrap_err();
        assert!(err.to_string().contains("moves/s"), "{err}");
    }

    fn rollback_doc(good_rolled_back: bool, exposed: u64, contained: bool) -> String {
        format!(
            "{{\"suite\": \"rollback-sweep\", \"smoke\": false, \"machines\": 100000,\n\
             \"results\": [\
             {{\"strategy\": \"canary\", \"loss_pct\": 0, \"release\": \"good\", \
             \"machines\": 100000, \"converged\": true, \"rolled_back\": {good_rolled_back}, \
             \"exposed\": 0, \"exposure_limit\": 1000, \"completion_time\": 61000}},\
             {{\"strategy\": \"canary\", \"loss_pct\": 30, \"release\": \"bad\", \
             \"machines\": 100000, \"converged\": false, \"rolled_back\": true, \
             \"exposed\": {exposed}, \"exposure_limit\": 1000, \"completion_time\": null}},\
             {{\"strategy\": \"staged\", \"loss_pct\": 0, \"release\": \"bad\", \
             \"machines\": 100000, \"converged\": true, \"rolled_back\": false, \
             \"exposed\": 0, \"exposure_limit\": 25000, \"completion_time\": 90000}}],\n\
             \"all_good_converged\": true, \"all_bad_contained\": {contained}}}"
        )
    }

    #[test]
    fn valid_rollback_document_passes() {
        let notes = check(BenchKind::Rollback, &rollback_doc(false, 620, true)).unwrap();
        assert!(notes.iter().any(|n| n.contains("bad canary")), "{notes:?}");
    }

    #[test]
    fn rollback_invariant_breaches_fail() {
        // The guard aborted a good release: a false positive.
        let err = check(BenchKind::Rollback, &rollback_doc(true, 620, true)).unwrap_err();
        assert!(err.to_string().contains("false positive"), "{err}");

        // Exposure over the first-cohort limit: the abort fired after
        // the bad release had already widened.
        let err = check(BenchKind::Rollback, &rollback_doc(false, 1400, true)).unwrap_err();
        assert!(err.to_string().contains("first-cohort limit"), "{err}");

        // Flag flipped while the rows still satisfy containment.
        let err = check(BenchKind::Rollback, &rollback_doc(false, 620, false)).unwrap_err();
        assert!(err.to_string().contains("all_bad_contained"), "{err}");

        // A bad canary that never rolled back.
        let no_abort = rollback_doc(false, 620, true).replace(
            "\"converged\": false, \"rolled_back\": true",
            "\"converged\": false, \"rolled_back\": false",
        );
        let err = check(BenchKind::Rollback, &no_abort).unwrap_err();
        assert!(err.to_string().contains("must abort"), "{err}");

        // A bad staged row that neither rolled back nor converged: the
        // regression escaped and nothing stopped it.
        let escaped = rollback_doc(false, 620, true).replace(
            "\"converged\": true, \"rolled_back\": false, \
             \"exposed\": 0, \"exposure_limit\": 25000",
            "\"converged\": false, \"rolled_back\": false, \
             \"exposed\": 0, \"exposure_limit\": 25000",
        );
        let err = check(BenchKind::Rollback, &escaped).unwrap_err();
        assert!(err.to_string().contains("neither rolled back"), "{err}");

        // Without a bad canary row the headline claim is untested.
        let no_canary = rollback_doc(false, 620, true).replace(
            "\"strategy\": \"canary\", \"loss_pct\": 30",
            "\"strategy\": \"rolling\", \"loss_pct\": 30",
        );
        let err = check(BenchKind::Rollback, &no_canary).unwrap_err();
        assert!(err.to_string().contains("no bad-release canary"), "{err}");

        // Missing row field.
        let no_exposed = rollback_doc(false, 620, true).replace("\"exposed\": 620, ", "");
        let err = check(BenchKind::Rollback, &no_exposed).unwrap_err();
        assert!(err.to_string().contains("'exposed'"), "{err}");
    }

    fn storage_doc(smoke: bool, recovered_equal: bool, fs_rate: f64) -> String {
        format!(
            "{{\"suite\": \"urr-store-perf\", \"smoke\": {smoke}, \"reports\": 100000,\n\
             \"results\": [{}, {}, {}, {}, {}, {}],\n\
             \"wal_append_memory_100k_reports_per_sec\": 2500000.0,\n\
             \"wal_append_fs_100k_reports_per_sec\": {fs_rate},\n\
             \"mixed_reads_per_sec\": 800000.0, \"mixed_writes_per_sec\": 400000.0,\n\
             \"recovery_wal_100k_ms\": 85.0, \"recovery_snapshot_100k_ms\": 12.0,\n\
             \"recovery_snapshot_1m_ms\": 130.0,\n\
             \"recovered_equal\": {recovered_equal}}}",
            harness_row("storage/wal/append-memory-100k"),
            harness_row("storage/wal/append-fs-100k"),
            harness_row("storage/recover/wal-100k"),
            harness_row("storage/recover/snapshot-100k"),
            harness_row("storage/serve/mixed-read-write-100k"),
            scale_row("storage/recover/snapshot-1m"),
        )
    }

    #[test]
    fn valid_storage_document_passes() {
        let notes = check(BenchKind::Storage, &storage_doc(false, true, 600000.0)).unwrap();
        assert!(notes.iter().any(|n| n.contains("recovered")), "{notes:?}");
        assert!(notes.iter().any(|n| n.contains("reads/s")), "{notes:?}");
        assert!(notes.iter().any(|n| n.contains("recovery")), "{notes:?}");
    }

    #[test]
    fn storage_invariant_breaches_fail() {
        // A committed smoke run pins nothing.
        let err = check(BenchKind::Storage, &storage_doc(true, true, 600000.0)).unwrap_err();
        assert!(err.to_string().contains("--smoke"), "{err}");

        // The run's own recovery-equals-live verification failed.
        let err = check(BenchKind::Storage, &storage_doc(false, false, 600000.0)).unwrap_err();
        assert!(err.to_string().contains("recovered_equal"), "{err}");

        // A zero throughput means the workload measured nothing.
        let err = check(BenchKind::Storage, &storage_doc(false, true, 0.0)).unwrap_err();
        assert!(
            err.to_string()
                .contains("wal_append_fs_100k_reports_per_sec"),
            "{err}"
        );

        // Every 100k row is part of the committed surface.
        let missing =
            storage_doc(false, true, 600000.0).replace("storage/recover/snapshot-100k", "other");
        let err = check(BenchKind::Storage, &missing).unwrap_err();
        assert!(err.to_string().contains("snapshot-100k"), "{err}");

        // ... as is the 1M single-shot recovery row.
        let missing =
            storage_doc(false, true, 600000.0).replace("storage/recover/snapshot-1m", "other");
        let err = check(BenchKind::Storage, &missing).unwrap_err();
        assert!(err.to_string().contains("snapshot-1m"), "{err}");

        // The 1M row must carry the scale marker, not sneak a
        // single-sample measurement past the harness floor.
        let unmarked =
            storage_doc(false, true, 600000.0).replace("\"scale\": true", "\"scale\": false");
        let err = check(BenchKind::Storage, &unmarked).unwrap_err();
        assert!(err.to_string().contains("sample"), "{err}");

        // A non-positive recovery time is a clock error, not a result.
        let zeroed = storage_doc(false, true, 600000.0).replace(
            "\"recovery_wal_100k_ms\": 85.0",
            "\"recovery_wal_100k_ms\": 0",
        );
        let err = check(BenchKind::Storage, &zeroed).unwrap_err();
        assert!(err.to_string().contains("recovery_wal_100k_ms"), "{err}");

        // Missing scalar field.
        let gone =
            storage_doc(false, true, 600000.0).replace("\"mixed_reads_per_sec\": 800000.0, ", "");
        let err = check(BenchKind::Storage, &gone).unwrap_err();
        assert!(err.to_string().contains("mixed_reads_per_sec"), "{err}");
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(BenchKind::ALL.len(), 9);
        assert_eq!(BenchKind::Urr.suite(), "urr-perf");
        assert_eq!(BenchKind::Sweep.suite(), "sim-sweep");
        assert_eq!(BenchKind::Trace.suite(), "trace-overhead");
        assert_eq!(BenchKind::Drift.suite(), "drift-perf");
        assert_eq!(BenchKind::Rollback.suite(), "rollback-sweep");
        assert_eq!(BenchKind::Storage.suite(), "urr-store-perf");
        assert_eq!(BenchKind::ALL[0].1, "BENCH_clustering.json");
        assert_eq!(BenchKind::ALL[3].1, "BENCH_sweep.json");
        assert_eq!(BenchKind::ALL[5].1, "BENCH_trace.json");
        assert_eq!(BenchKind::ALL[6].1, "BENCH_drift.json");
        assert_eq!(BenchKind::ALL[7].1, "BENCH_rollback.json");
        assert_eq!(BenchKind::ALL[8].1, "BENCH_storage.json");
    }
}
