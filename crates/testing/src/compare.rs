//! Output comparison.
//!
//! The validator compares the outputs of a replayed run against the
//! recorded ones. Comparison is *per target*: all bytes written to a file
//! path, and the sequence of messages sent to each network peer. Grouping
//! by target (rather than comparing the raw event streams) provides the
//! reordering tolerance the paper requires — recorded file inputs may be
//! replayed in a different order without failing validation, but any
//! difference in what is actually written or sent is caught.

use std::collections::BTreeSet;

use mirage_env::app::RunOutputs;
use mirage_trace::{SyscallEvent, Trace};

/// The outputs among `events` as borrowed `(to_net, target, bytes)`:
/// writes to a file path and sends to a network peer, in order.
fn outputs(events: &[SyscallEvent]) -> impl Iterator<Item = (bool, &str, &[u8])> {
    events.iter().filter_map(|ev| match ev {
        SyscallEvent::Write { path, data } => Some((false, path.as_str(), data.as_slice())),
        SyscallEvent::NetSend { peer, data } => Some((true, peer.as_str(), data.as_slice())),
        _ => None,
    })
}

/// Compares a recorded run's outputs with its replay's and returns
/// every difference: the files, then the peers, whose outputs differ,
/// each by name, then the exit code. None when they match.
///
/// Outputs in the same order are equal per target, and compare as
/// borrowed slices without grouping; only otherwise are the targets
/// collected and each one's outputs compared in turn.
pub(crate) fn diff_outputs(recorded: &Trace, replay: &RunOutputs) -> Vec<OutputDiff> {
    let (ours, theirs) = (recorded.events.as_slice(), replay.outputs.as_slice());
    let (recorded_exit, replayed_exit) = (recorded.exit_code(), replay.exit_code);
    if recorded_exit == replayed_exit && outputs(ours).eq(outputs(theirs)) {
        return Vec::new();
    }
    let targets: BTreeSet<(bool, &str)> = outputs(ours)
        .chain(outputs(theirs))
        .map(|(to_net, target, _)| (to_net, target))
        .collect();
    let sent_to = |events, key| {
        outputs(events)
            .filter(move |&(to_net, target, _)| (to_net, target) == key)
            .map(|(_, _, data)| data)
    };
    let mut diffs: Vec<OutputDiff> = targets
        .into_iter()
        .filter(|&key| !sent_to(ours, key).eq(sent_to(theirs, key)))
        .map(|(to_net, target)| match to_net {
            false => OutputDiff::File {
                path: target.to_string(),
            },
            true => OutputDiff::Net {
                peer: target.to_string(),
            },
        })
        .collect();
    if recorded_exit != replayed_exit {
        diffs.push(OutputDiff::ExitCode {
            recorded: recorded_exit,
            replayed: replayed_exit,
        });
    }
    diffs
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

/// The comparison by summaries that [`diff_outputs`] replaces: each
/// run's outputs copied into per-target maps, then the maps compared.
/// Kept as the reference the tests compare the validator against.
#[cfg(test)]
mod summary {
    use std::collections::{BTreeMap, BTreeSet};

    use mirage_trace::{SyscallEvent, Trace};

    use super::OutputDiff;

    /// Outputs of one run, grouped by target.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub(crate) struct OutputSummary {
        /// Concatenated writes per file path.
        pub(crate) files: BTreeMap<String, Vec<Vec<u8>>>,
        /// Message sequences per network peer.
        pub(crate) net: BTreeMap<String, Vec<Vec<u8>>>,
        /// Exit code of the run.
        pub(crate) exit_code: Option<i32>,
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

    impl OutputSummary {
        /// Compares two summaries, returning every difference.
        pub(crate) fn diff(&self, other: &OutputSummary) -> Vec<OutputDiff> {
            let mut diffs = Vec::new();
            let file_keys: BTreeSet<&String> =
                self.files.keys().chain(other.files.keys()).collect();
            for path in file_keys {
                if self.files.get(path) != other.files.get(path) {
                    diffs.push(OutputDiff::File { path: path.clone() });
                }
            }
            let peers: BTreeSet<&String> = self.net.keys().chain(other.net.keys()).collect();
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
}

#[cfg(test)]
pub(crate) use summary::summarize_outputs;

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

    /// A replay matches when every target's outputs match, whatever the
    /// order between targets, and a mismatch names what the summaries
    /// name.
    #[test]
    fn replay_is_compared_per_target() {
        let rec = trace_with(vec![
            write("/out", b"r"),
            send("c", b"1"),
            write("/log", b"ok"),
            SyscallEvent::Exit { code: 0 },
        ]);
        let replay = |outputs, code| RunOutputs {
            outputs,
            exit_code: Some(code),
        };
        let reordered = replay(
            vec![send("c", b"1"), write("/log", b"ok"), write("/out", b"r")],
            0,
        );
        assert!(diff_outputs(&rec, &reordered).is_empty());
        let changed = vec![write("/log", b"ok"), write("/out", b"x"), send("d", b"1")];
        let mut rep = trace_with(changed.clone());
        rep.push(SyscallEvent::Exit { code: 3 });
        let diffs = diff_outputs(&rec, &replay(changed, 3));
        assert_eq!(diffs.len(), 4);
        assert_eq!(
            diffs,
            summarize_outputs(&rec).diff(&summarize_outputs(&rep))
        );
    }
}
