//! Output comparison.
//!
//! The validator compares the outputs of a replayed run against the
//! recorded ones. Comparison is *per target*: all bytes written to a file
//! path, and the sequence of messages sent to each network peer. Grouping
//! by target (rather than comparing the raw event streams) provides the
//! reordering tolerance the paper requires — recorded file inputs may be
//! replayed in a different order without failing validation, but any
//! difference in what is actually written or sent is caught.

use std::collections::BTreeMap;

use mirage_trace::{SyscallEvent, Trace};

/// Outputs of one run, grouped by target.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct OutputSummary {
    /// Concatenated writes per file path.
    pub files: BTreeMap<String, Vec<Vec<u8>>>,
    /// Message sequences per network peer.
    pub net: BTreeMap<String, Vec<Vec<u8>>>,
    /// Exit code of the run.
    pub exit_code: Option<i32>,
}

/// Builds the output summary of a trace.
pub(crate) fn summarize_outputs(trace: &Trace) -> OutputSummary {
    let mut summary = OutputSummary {
        exit_code: trace.exit_code(),
        ..Default::default()
    };
    for ev in &trace.events {
        match ev {
            SyscallEvent::Write { path, data } => {
                summary
                    .files
                    .entry(path.clone())
                    .or_default()
                    .push(data.clone());
            }
            SyscallEvent::NetSend { peer, data } => {
                summary
                    .net
                    .entry(peer.clone())
                    .or_default()
                    .push(data.clone());
            }
            _ => {}
        }
    }
    summary
}

/// One observed difference between recorded and replayed outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum OutputDiff {
    /// A file target's written contents differ (or the target is missing
    /// on one side).
    File {
        /// File path.
        path: String,
    },
    /// A network peer's message sequence differs.
    Net {
        /// Peer endpoint.
        peer: String,
    },
    /// Exit codes differ.
    ExitCode {
        /// Recorded exit code.
        recorded: Option<i32>,
        /// Replayed exit code.
        replayed: Option<i32>,
    },
}

impl std::fmt::Display for OutputDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutputDiff::File { path } => write!(f, "file output differs: {path}"),
            OutputDiff::Net { peer } => write!(f, "network output differs: {peer}"),
            OutputDiff::ExitCode { recorded, replayed } => {
                write!(f, "exit code differs: {recorded:?} vs {replayed:?}")
            }
        }
    }
}

impl OutputSummary {
    /// Compares two summaries, returning every difference.
    pub fn diff(&self, other: &OutputSummary) -> Vec<OutputDiff> {
        let mut diffs = Vec::new();
        let file_keys: std::collections::BTreeSet<&String> =
            self.files.keys().chain(other.files.keys()).collect();
        for path in file_keys {
            if self.files.get(path) != other.files.get(path) {
                diffs.push(OutputDiff::File { path: path.clone() });
            }
        }
        let peers: std::collections::BTreeSet<&String> =
            self.net.keys().chain(other.net.keys()).collect();
        for peer in peers {
            if self.net.get(peer) != other.net.get(peer) {
                diffs.push(OutputDiff::Net { peer: peer.clone() });
            }
        }
        if self.exit_code != other.exit_code {
            diffs.push(OutputDiff::ExitCode {
                recorded: self.exit_code,
                replayed: other.exit_code,
            });
        }
        diffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_trace::{OpenMode, RunId};

    fn trace_with(events: Vec<SyscallEvent>) -> Trace {
        let mut t = Trace::new("m", "a", RunId(0));
        for e in events {
            t.push(e);
        }
        t
    }

    fn write(path: &str, data: &[u8]) -> SyscallEvent {
        SyscallEvent::Write {
            path: path.into(),
            data: data.to_vec(),
        }
    }

    fn send(peer: &str, data: &[u8]) -> SyscallEvent {
        SyscallEvent::NetSend {
            peer: peer.into(),
            data: data.to_vec(),
        }
    }

    #[test]
    fn summary_groups_by_target() {
        let t = trace_with(vec![
            write("/log", b"a"),
            send("client", b"1"),
            write("/log", b"b"),
            send("client", b"2"),
            SyscallEvent::Exit { code: 0 },
        ]);
        let s = summarize_outputs(&t);
        assert_eq!(s.files["/log"], vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(s.net["client"].len(), 2);
        assert_eq!(s.exit_code, Some(0));
    }

    #[test]
    fn identical_outputs_have_no_diff() {
        let t1 = trace_with(vec![write("/log", b"x"), SyscallEvent::Exit { code: 0 }]);
        let t2 = trace_with(vec![write("/log", b"x"), SyscallEvent::Exit { code: 0 }]);
        assert!(summarize_outputs(&t1)
            .diff(&summarize_outputs(&t2))
            .is_empty());
    }

    #[test]
    fn input_reordering_is_tolerated() {
        // Same outputs, inputs read in a different order.
        let t1 = trace_with(vec![
            SyscallEvent::Open {
                path: "/data/a".into(),
                mode: OpenMode::ReadOnly,
            },
            SyscallEvent::Open {
                path: "/data/b".into(),
                mode: OpenMode::ReadOnly,
            },
            write("/out", b"r"),
            SyscallEvent::Exit { code: 0 },
        ]);
        let t2 = trace_with(vec![
            SyscallEvent::Open {
                path: "/data/b".into(),
                mode: OpenMode::ReadOnly,
            },
            SyscallEvent::Open {
                path: "/data/a".into(),
                mode: OpenMode::ReadOnly,
            },
            write("/out", b"r"),
            SyscallEvent::Exit { code: 0 },
        ]);
        assert!(summarize_outputs(&t1)
            .diff(&summarize_outputs(&t2))
            .is_empty());
    }

    #[test]
    fn differences_are_reported_per_target() {
        let rec = trace_with(vec![
            write("/out", b"good"),
            send("c", b"ok"),
            SyscallEvent::Exit { code: 0 },
        ]);
        let rep = trace_with(vec![
            write("/out", b"bad"),
            send("c", b"ok"),
            send("d", b"extra"),
            SyscallEvent::Exit { code: 139 },
        ]);
        let diffs = summarize_outputs(&rec).diff(&summarize_outputs(&rep));
        assert_eq!(diffs.len(), 3);
        assert!(matches!(&diffs[0], OutputDiff::File { path } if path == "/out"));
        assert!(matches!(&diffs[1], OutputDiff::Net { peer } if peer == "d"));
        assert!(matches!(diffs[2], OutputDiff::ExitCode { .. }));
        // Display formats are human-readable.
        assert!(diffs[0].to_string().contains("/out"));
    }

    #[test]
    fn write_order_within_target_matters() {
        let t1 = trace_with(vec![write("/log", b"a"), write("/log", b"b")]);
        let t2 = trace_with(vec![write("/log", b"b"), write("/log", b"a")]);
        assert_eq!(
            summarize_outputs(&t1).diff(&summarize_outputs(&t2)).len(),
            1
        );
    }
}
