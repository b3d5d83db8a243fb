//! A [`Trace`] is the recorded event log of one application run.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::event::{OpenMode, SyscallEvent};

/// Identifier of a single traced run, unique within a [`crate::TraceStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId(pub u64);

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run#{}", self.0)
    }
}

/// The event log of one run of one application on one machine.
///
/// Traces are both the input to the environmental-resource heuristic
/// (which inspects *which* files are accessed, in what order and mode) and
/// the input/output record used by the validation subsystem (which replays
/// recorded inputs against an upgraded application and compares outputs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Machine the run was recorded on.
    pub machine: String,
    /// Application name.
    pub app: String,
    /// Which run this is.
    pub run: RunId,
    /// The ordered event log.
    pub events: Vec<SyscallEvent>,
}

impl Trace {
    /// Creates an empty trace for `app` on `machine`.
    pub fn new(machine: impl Into<String>, app: impl Into<String>, run: RunId) -> Self {
        Trace {
            machine: machine.into(),
            app: app.into(),
            run,
            events: Vec::new(),
        }
    }

    /// Appends an event to the log.
    pub fn push(&mut self, event: SyscallEvent) {
        self.events.push(event);
    }

    /// Returns the sequence of file paths in *first-access order*.
    ///
    /// This is the sequence over which the heuristic computes the
    /// longest-common-prefix (the initialisation phase): each path appears
    /// once, at the position of its first `Open`/`ProcessCreate`/`Exec`.
    pub fn access_sequence(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let mut seq = Vec::new();
        for ev in &self.events {
            let path = match ev {
                SyscallEvent::Open { path, .. }
                | SyscallEvent::Read { path, .. }
                | SyscallEvent::Write { path, .. } => path,
                SyscallEvent::ProcessCreate { exe, .. } | SyscallEvent::Exec { exe } => exe,
                _ => continue,
            };
            if seen.insert(path.as_str()) {
                seq.push(path.as_str());
            }
        }
        seq
    }

    /// Returns every path accessed in this trace (any mode), deduplicated.
    pub fn accessed_paths(&self) -> BTreeSet<&str> {
        self.events.iter().filter_map(SyscallEvent::path).collect()
    }

    /// Returns the per-path effective open mode observed in this trace.
    ///
    /// A path opened both read-only and for writing is reported as writing:
    /// the heuristic treats "ever written" as disqualifying for the
    /// read-only rule.
    pub fn open_modes(&self) -> BTreeMap<&str, OpenMode> {
        let mut modes: BTreeMap<&str, OpenMode> = BTreeMap::new();
        for ev in &self.events {
            if let Some((path, mode)) = ev.opens() {
                modes
                    .entry(path)
                    .and_modify(|m| *m = m.merged(mode))
                    .or_insert(mode);
            }
        }
        modes
    }

    /// Returns the paths opened read-only (and never written) in this trace.
    pub fn read_only_paths(&self) -> BTreeSet<&str> {
        self.open_modes()
            .into_iter()
            .filter(|(_, m)| !m.writes())
            .map(|(p, _)| p)
            .collect()
    }

    /// Returns the names of environment variables read in this trace.
    pub fn env_vars_read(&self) -> BTreeSet<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                SyscallEvent::GetEnv { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Returns all output events (file writes, network sends), in order.
    pub fn outputs(&self) -> Vec<&SyscallEvent> {
        self.events.iter().filter(|e| e.is_output()).collect()
    }

    /// Returns all recorded network inputs, in order.
    pub fn net_inputs(&self) -> Vec<(&str, &[u8])> {
        self.events
            .iter()
            .filter_map(|e| match e {
                SyscallEvent::NetRecv { peer, data } => Some((peer.as_str(), data.as_slice())),
                _ => None,
            })
            .collect()
    }

    /// Returns the recorded argument vector of the traced process, if any.
    pub fn args(&self) -> Option<&[String]> {
        self.events.iter().find_map(|e| match e {
            SyscallEvent::ProcessCreate { args, .. } => Some(args.as_slice()),
            _ => None,
        })
    }

    /// Returns the exit code recorded in the trace, if the process exited.
    pub fn exit_code(&self) -> Option<i32> {
        self.events.iter().rev().find_map(|e| match e {
            SyscallEvent::Exit { code } => Some(*code),
            _ => None,
        })
    }

    /// Returns `true` if the traced run terminated successfully.
    pub fn succeeded(&self) -> bool {
        self.exit_code() == Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("m1", "mysqld", RunId(0));
        t.push(SyscallEvent::ProcessCreate {
            exe: "/usr/sbin/mysqld".into(),
            args: vec!["--datadir=/var/lib/mysql".into()],
        });
        t.push(SyscallEvent::Open {
            path: "/lib/libc.so.6".into(),
            mode: OpenMode::ReadOnly,
        });
        t.push(SyscallEvent::Open {
            path: "/etc/mysql/my.cnf".into(),
            mode: OpenMode::ReadOnly,
        });
        t.push(SyscallEvent::GetEnv {
            name: "HOME".into(),
            value: Some("/root".into()),
        });
        t.push(SyscallEvent::Open {
            path: "/var/lib/mysql/ibdata1".into(),
            mode: OpenMode::ReadWrite,
        });
        t.push(SyscallEvent::Write {
            path: "/var/log/mysql.log".into(),
            data: b"started".to_vec(),
        });
        // Re-open of an already-seen path must not duplicate in the sequence.
        t.push(SyscallEvent::Open {
            path: "/etc/mysql/my.cnf".into(),
            mode: OpenMode::ReadOnly,
        });
        t.push(SyscallEvent::NetSend {
            peer: "client:3306".into(),
            data: b"ok".to_vec(),
        });
        t.push(SyscallEvent::Exit { code: 0 });
        t
    }

    #[test]
    fn access_sequence_is_first_access_order() {
        let t = sample();
        assert_eq!(
            t.access_sequence(),
            vec![
                "/usr/sbin/mysqld".to_string(),
                "/lib/libc.so.6".to_string(),
                "/etc/mysql/my.cnf".to_string(),
                "/var/lib/mysql/ibdata1".to_string(),
                "/var/log/mysql.log".to_string(),
            ]
        );
    }

    #[test]
    fn read_only_excludes_written_paths() {
        let t = sample();
        let ro = t.read_only_paths();
        assert!(ro.contains("/etc/mysql/my.cnf"));
        assert!(ro.contains("/lib/libc.so.6"));
        assert!(ro.contains("/usr/sbin/mysqld"));
        assert!(!ro.contains("/var/lib/mysql/ibdata1"));
        assert!(!ro.contains("/var/log/mysql.log"));
    }

    #[test]
    fn env_vars_and_args_and_exit() {
        let t = sample();
        assert!(t.env_vars_read().contains("HOME"));
        assert_eq!(t.args().unwrap(), &["--datadir=/var/lib/mysql"]);
        assert_eq!(t.exit_code(), Some(0));
        assert!(t.succeeded());
    }

    #[test]
    fn outputs_are_writes_and_sends() {
        let t = sample();
        let outs = t.outputs();
        assert_eq!(outs.len(), 2);
        assert!(matches!(outs[0], SyscallEvent::Write { .. }));
        assert!(matches!(outs[1], SyscallEvent::NetSend { .. }));
    }

    #[test]
    fn mode_merging_promotes_to_readwrite() {
        let mut t = Trace::new("m", "a", RunId(1));
        t.push(SyscallEvent::Open {
            path: "/f".into(),
            mode: OpenMode::ReadOnly,
        });
        t.push(SyscallEvent::Open {
            path: "/f".into(),
            mode: OpenMode::WriteOnly,
        });
        assert_eq!(t.open_modes()["/f"], OpenMode::ReadWrite);
        assert!(t.read_only_paths().is_empty());
    }

    #[test]
    fn crashed_run_has_no_success() {
        let mut t = Trace::new("m", "a", RunId(2));
        t.push(SyscallEvent::Exit { code: 139 });
        assert!(!t.succeeded());
        let empty = Trace::new("m", "a", RunId(3));
        assert_eq!(empty.exit_code(), None);
        assert!(!empty.succeeded());
    }
}
