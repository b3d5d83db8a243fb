//! The one writer for the `BENCH_*.json` documents.
//!
//! Every `repro` suite describes its document as a [`BenchDoc`]: the
//! `suite` and `note`, then — in document order — scalars, the
//! `results` rows (harness rows or grid rows), and derived scalars.
//! Serialisation, string escaping, the output path and the `(wrote …)`
//! line live here and nowhere else; the bench gate
//! ([`crate::benchgate`]) reads back exactly what this writes.

use std::path::{Path, PathBuf};

use crate::harness::BenchStats;
use mirage_telemetry::json::Value;

/// Rounds `x` to `places` decimals, the precision a document commits.
pub fn round_to(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// One harness row as the gate expects it; `scale` appears only on
/// intentional single-shot rows.
fn harness_row(r: &BenchStats) -> Value {
    let mut pairs = vec![
        ("name", Value::str(r.name.clone())),
        ("samples", Value::from(r.samples)),
        ("min_ns", Value::from(r.min_ns)),
        ("p50_ns", Value::from(r.p50_ns)),
        ("mean_ns", Value::from(r.mean_ns.round())),
        ("max_ns", Value::from(r.max_ns)),
    ];
    if r.scale {
        pairs.push(("scale", Value::from(true)));
    }
    Value::obj(pairs)
}

/// Writes `text` as `file` into the `--csv` directory when given, the
/// working directory otherwise, and reports where it went.
pub fn write_document(csv_dir: Option<&Path>, file: &str, mut text: String) -> PathBuf {
    let path = csv_dir.map_or_else(|| PathBuf::from(file), |dir| dir.join(file));
    if !text.ends_with('\n') {
        text.push('\n');
    }
    std::fs::write(&path, text).unwrap_or_else(|err| panic!("write {}: {err}", path.display()));
    println!("(wrote {})", path.display());
    path
}

/// A benchmark document under construction: an ordered list of
/// top-level fields, `suite` and `note` first.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    fields: Vec<(String, Value)>,
}

impl BenchDoc {
    /// Starts the document of `suite` with its explanatory `note`.
    pub fn new(suite: &str, note: impl Into<String>) -> Self {
        BenchDoc {
            fields: vec![
                ("suite".to_string(), Value::str(suite)),
                ("note".to_string(), Value::str(note)),
            ],
        }
    }

    /// Appends a top-level field: `smoke`, a fleet size, a derived
    /// scalar, or a nested object of them.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Appends the `results` array from harness rows.
    pub fn harness_rows(&mut self, rows: &[BenchStats]) -> &mut Self {
        self.set("results", Value::arr(rows.iter().map(harness_row)))
    }

    /// Appends the `results` array from the cells of a sweep grid.
    pub fn grid_rows(&mut self, rows: Vec<Value>) -> &mut Self {
        self.set("results", Value::Arr(rows))
    }

    /// The document as a JSON value.
    pub fn to_value(&self) -> Value {
        Value::Obj(self.fields.clone())
    }

    /// Writes the document as `file` (see [`write_document`]).
    pub fn write(&self, csv_dir: Option<&Path>, file: &str) -> PathBuf {
        write_document(csv_dir, file, self.to_value().to_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hand-formatted writers emitted an invalid document for a row
    /// name or note containing `"` or `\`; the one writer escapes them,
    /// keeps fields in insertion order, and marks only scale rows.
    #[test]
    fn written_documents_round_trip_through_the_parser() {
        let name = r#"suite/"quoted"\path"#;
        let note = "a \"note\" with a \\ and a\nnewline";
        let mut doc = BenchDoc::new("sim-perf", note);
        doc.set("smoke", false)
            .harness_rows(&[
                BenchStats::example(name, false),
                BenchStats::example("b", true),
            ])
            .set("speedup", round_to(30.0249, 2));
        let dir = std::env::temp_dir().join(format!("mirage-benchdoc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = doc.write(Some(&dir), "BENCH_x.json");
        assert_eq!(path, dir.join("BENCH_x.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.ends_with('\n'));

        let Value::Obj(fields) = Value::parse(&text).expect("valid JSON") else {
            panic!("documents are objects");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["suite", "note", "smoke", "results", "speedup"]);
        assert_eq!(fields[1].1.as_str(), Some(note));
        let rows = fields[3].1.as_array().unwrap();
        assert_eq!(rows[0].get("name").and_then(Value::as_str), Some(name));
        assert_eq!(rows[0].get("mean_ns").and_then(Value::as_f64), Some(133.0));
        assert_eq!(rows[0].get("scale"), None);
        assert_eq!(rows[1].get("scale"), Some(&Value::Bool(true)));
        assert_eq!(fields[4].1.as_f64(), Some(30.02));
    }
}
