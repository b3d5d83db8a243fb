//! Documentation that names the tree: every backticked repository path
//! in README.md, DESIGN.md, EXPERIMENTS.md and ROADMAP.md exists.
//!
//! A path is an inline code span, outside fenced blocks, that starts
//! with `crates/`, `tests/`, `src/`, `benchmark/` or `examples/`. The
//! path ends at the first space or `:` (so `file.rs:120` and
//! `file.rs::item` name `file.rs`); a span holding a glob (`*`), a
//! brace list (`{`) or a placeholder (`<`) names a pattern, not a path,
//! and is skipped.

use std::fs;
use std::path::Path;

/// The documents whose paths are checked.
const DOCUMENTS: &[&str] = &["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"];

/// The prefixes that make a code span a repository path.
const ROOTS: &[&str] = &["crates/", "tests/", "src/", "benchmark/", "examples/"];

/// The repository paths `text` names in inline code, with their line
/// numbers. A span may run over a line break, as Markdown allows.
fn backticked_paths(text: &str) -> Vec<(usize, String)> {
    let mut fenced = false;
    let mut prose = String::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
        }
        // Fenced lines stay as empty lines so line numbers hold.
        prose.push('\n');
    }
    let mut paths = Vec::new();
    let mut line = 1;
    for (i, piece) in prose.split('`').enumerate() {
        let path = piece.split([' ', '\n', ':']).next().unwrap_or_default();
        let named = ROOTS.iter().any(|root| path.starts_with(root));
        if i % 2 == 1 && named && !path.contains(['*', '<', '{']) {
            paths.push((line, path.to_string()));
        }
        line += piece.matches('\n').count();
    }
    paths
}

#[test]
fn backticked_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCUMENTS {
        let text = fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line, path) in backticked_paths(&text) {
            checked += 1;
            if !root.join(&path).exists() {
                missing.push(format!("{doc}:{line}: `{path}`"));
            }
        }
    }
    assert!(checked > 0, "the documents name no repository path");
    assert!(
        missing.is_empty(),
        "{} backticked paths name nothing in the tree:\n{}",
        missing.len(),
        missing.join("\n")
    );
}

#[test]
fn paths_are_read_from_inline_code_only() {
    let text = "see `crates/sim/src/runner.rs:30` and `tests/docs.rs::x`\n\
                ```\n`crates/not/here.rs`\n```\n\
                `crates/*/src/lib.rs`, `cargo test`, `src/<name>.rs`, `src/{a,\n\
                b}.rs` and `examples/\nx.rs`";
    let expect = [
        (1, "crates/sim/src/runner.rs"),
        (1, "tests/docs.rs"),
        (6, "examples/"),
    ];
    assert_eq!(
        backticked_paths(text),
        expect.map(|(n, p)| (n, p.to_string()))
    );
}
