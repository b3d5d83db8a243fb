//! Shared formatting helpers for the reproduction harness and benches.
//!
//! The `repro` binary (see `src/bin/repro.rs`) regenerates every table
//! and figure of the paper's evaluation and prints them in the same
//! row/series structure the paper reports; this library holds the plain
//! text rendering utilities it uses plus the std-only micro-benchmark
//! [`harness`] the `benches/` targets are built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod benchgate;
pub mod doc;
pub mod harness;

use mirage_sim::SimTime;

/// Renders a simple aligned ASCII table.
///
/// # Examples
///
/// ```
/// use mirage_bench::render_table;
/// let out = render_table(
///     &["App", "Files"],
///     &[vec!["php".into(), "215".into()]],
/// );
/// assert!(out.contains("php"));
/// assert!(out.contains("Files"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(cell.len());
            line.push_str(&format!("{cell:<w$}  "));
        }
        line.trim_end().to_string()
    };
    out.push_str(&render_row(
        headers.iter().map(|h| h.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(
        &"-".repeat(
            widths
                .iter()
                .map(|w| w + 2)
                .sum::<usize>()
                .saturating_sub(2),
        ),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Renders a CDF as a fixed set of sample rows (time → fraction).
///
/// CDFs with many distinct steps are subsampled to at most `max_rows`
/// evenly spaced points, always keeping the first and last.
pub fn render_cdf(points: &[(SimTime, f64)], max_rows: usize) -> Vec<(SimTime, f64)> {
    if points.len() <= max_rows || max_rows < 2 {
        return points.to_vec();
    }
    let mut sampled = Vec::with_capacity(max_rows);
    for i in 0..max_rows {
        let idx = i * (points.len() - 1) / (max_rows - 1);
        sampled.push(points[idx]);
    }
    sampled.dedup();
    sampled
}

/// Renders a horizontal ASCII bar.
pub fn bar(value: usize, scale: usize) -> String {
    let width = (value * 40).checked_div(scale).unwrap_or(0);
    "#".repeat(width.max(usize::from(value > 0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let out = render_table(
            &["a", "long-header"],
            &[
                vec!["xxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     long-header"));
    }

    #[test]
    fn cdf_subsampling_keeps_endpoints() {
        let points: Vec<(SimTime, f64)> = (0..100).map(|i| (i, i as f64 / 100.0)).collect();
        let sampled = render_cdf(&points, 10);
        assert!(sampled.len() <= 10);
        assert_eq!(sampled.first(), Some(&(0, 0.0)));
        assert_eq!(sampled.last(), Some(&(99, 0.99)));
        // Short CDFs pass through untouched.
        assert_eq!(render_cdf(&points[..5], 10), points[..5].to_vec());
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(0, 100), "");
        assert!(!bar(1, 100).is_empty());
        assert!(bar(100, 100).len() >= 40);
    }
}
