//! The syscall event vocabulary recorded by Mirage's tracing subsystem.

use std::fmt;

/// The mode a file was opened with.
///
/// The environmental-resource heuristic cares about the distinction between
/// files that are only ever read (candidate environmental resources) and
/// files that are written (data, logs, caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpenMode {
    /// Opened for reading only.
    ReadOnly,
    /// Opened for writing only (includes append).
    WriteOnly,
    /// Opened for both reading and writing.
    ReadWrite,
}

impl OpenMode {
    /// Returns `true` if the mode permits writing.
    pub fn writes(self) -> bool {
        !matches!(self, OpenMode::ReadOnly)
    }

    /// Returns `true` if the mode permits reading.
    pub fn reads(self) -> bool {
        !matches!(self, OpenMode::WriteOnly)
    }

    /// The effective mode of a path opened as `self` and again as
    /// `other`: whatever either permits.
    pub fn merged(self, other: OpenMode) -> OpenMode {
        if (other.writes() && !self.writes()) || (other.reads() && !self.reads()) {
            OpenMode::ReadWrite
        } else {
            self
        }
    }
}

impl fmt::Display for OpenMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpenMode::ReadOnly => "ro",
            OpenMode::WriteOnly => "wo",
            OpenMode::ReadWrite => "rw",
        };
        f.write_str(s)
    }
}

/// One intercepted system call (or libc call) in an application run.
///
/// This mirrors the instrumentation points the paper lists in §3.2.3:
/// process creation, read/write/file-descriptor calls, socket calls, and
/// `getenv()`. Payload bytes are carried inline so that the validation
/// subsystem can replay network inputs and compare outputs without any
/// access to the original machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SyscallEvent {
    /// A process was created for `exe` with the given argument vector.
    ProcessCreate {
        /// Absolute path of the executable image.
        exe: String,
        /// Command-line arguments (excluding argv\[0\]).
        args: Vec<String>,
    },
    /// `exe` replaced the current process image (late `exec`).
    Exec {
        /// Absolute path of the new executable image.
        exe: String,
    },
    /// A file was opened.
    Open {
        /// Absolute path of the file.
        path: String,
        /// Open mode.
        mode: OpenMode,
    },
    /// Bytes were read from an open file.
    Read {
        /// Absolute path of the file.
        path: String,
        /// Number of bytes read.
        len: usize,
    },
    /// Bytes were written to an open file.
    Write {
        /// Absolute path of the file.
        path: String,
        /// The bytes written (recorded for output comparison).
        data: Vec<u8>,
    },
    /// An open file descriptor was closed.
    Close {
        /// Absolute path of the file.
        path: String,
    },
    /// An environment variable was read via `getenv()`.
    GetEnv {
        /// Variable name.
        name: String,
        /// Observed value, or `None` when unset.
        value: Option<String>,
    },
    /// A socket to `peer` was created/connected.
    Socket {
        /// Logical peer endpoint (host:port or a symbolic name).
        peer: String,
    },
    /// Bytes were sent on a socket (recorded for output comparison).
    NetSend {
        /// Logical peer endpoint.
        peer: String,
        /// The bytes sent.
        data: Vec<u8>,
    },
    /// Bytes were received from a socket (recorded for replay).
    NetRecv {
        /// Logical peer endpoint.
        peer: String,
        /// The bytes received.
        data: Vec<u8>,
    },
    /// The process exited with `code`.
    Exit {
        /// Process exit code (0 = success).
        code: i32,
    },
}

impl SyscallEvent {
    /// Returns the file path this event refers to, if it is file-related.
    pub fn path(&self) -> Option<&str> {
        match self {
            SyscallEvent::Open { path, .. }
            | SyscallEvent::Read { path, .. }
            | SyscallEvent::Write { path, .. }
            | SyscallEvent::Close { path } => Some(path),
            SyscallEvent::ProcessCreate { exe, .. } | SyscallEvent::Exec { exe } => Some(exe),
            _ => None,
        }
    }

    /// Returns the path this event opens and the mode it implies, if any:
    /// an `Open` as recorded, an executed image read-only, a `Write`
    /// write-only. `Read` and `Close` act on a file already open.
    pub fn opens(&self) -> Option<(&str, OpenMode)> {
        match self {
            SyscallEvent::Open { path, mode } => Some((path, *mode)),
            SyscallEvent::ProcessCreate { exe, .. } | SyscallEvent::Exec { exe } => {
                Some((exe, OpenMode::ReadOnly))
            }
            SyscallEvent::Write { path, .. } => Some((path, OpenMode::WriteOnly)),
            _ => None,
        }
    }

    /// Returns `true` for events that represent observable output
    /// (file writes and network sends).
    pub(crate) fn is_output(&self) -> bool {
        matches!(
            self,
            SyscallEvent::Write { .. } | SyscallEvent::NetSend { .. }
        )
    }
}

impl fmt::Display for SyscallEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyscallEvent::ProcessCreate { exe, args } => {
                write!(f, "proc_create({exe}, {args:?})")
            }
            SyscallEvent::Exec { exe } => write!(f, "exec({exe})"),
            SyscallEvent::Open { path, mode } => write!(f, "open({path}, {mode})"),
            SyscallEvent::Read { path, len } => write!(f, "read({path}, {len})"),
            SyscallEvent::Write { path, data } => write!(f, "write({path}, {} bytes)", data.len()),
            SyscallEvent::Close { path } => write!(f, "close({path})"),
            SyscallEvent::GetEnv { name, value } => write!(f, "getenv({name}) = {value:?}"),
            SyscallEvent::Socket { peer } => write!(f, "socket({peer})"),
            SyscallEvent::NetSend { peer, data } => {
                write!(f, "net_send({peer}, {} bytes)", data.len())
            }
            SyscallEvent::NetRecv { peer, data } => {
                write!(f, "net_recv({peer}, {} bytes)", data.len())
            }
            SyscallEvent::Exit { code } => write!(f, "exit({code})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_mode_predicates() {
        assert!(OpenMode::ReadOnly.reads());
        assert!(!OpenMode::ReadOnly.writes());
        assert!(OpenMode::WriteOnly.writes());
        assert!(!OpenMode::WriteOnly.reads());
        assert!(OpenMode::ReadWrite.reads());
        assert!(OpenMode::ReadWrite.writes());
    }

    #[test]
    fn event_path_extraction() {
        let ev = SyscallEvent::Open {
            path: "/etc/my.cnf".into(),
            mode: OpenMode::ReadOnly,
        };
        assert_eq!(ev.path(), Some("/etc/my.cnf"));
        let ev = SyscallEvent::GetEnv {
            name: "HOME".into(),
            value: Some("/home/u".into()),
        };
        assert_eq!(ev.path(), None);
        let ev = SyscallEvent::ProcessCreate {
            exe: "/usr/bin/mysqld".into(),
            args: vec![],
        };
        assert_eq!(ev.path(), Some("/usr/bin/mysqld"));
    }

    #[test]
    fn output_classification() {
        assert!(SyscallEvent::Write {
            path: "/var/log/x".into(),
            data: vec![1],
        }
        .is_output());
        assert!(SyscallEvent::NetSend {
            peer: "client".into(),
            data: vec![1],
        }
        .is_output());
        assert!(!SyscallEvent::Read {
            path: "/etc/x".into(),
            len: 10,
        }
        .is_output());
        assert!(!SyscallEvent::NetRecv {
            peer: "client".into(),
            data: vec![1],
        }
        .is_output());
    }

    #[test]
    fn display_formats() {
        let ev = SyscallEvent::Open {
            path: "/a".into(),
            mode: OpenMode::ReadWrite,
        };
        assert_eq!(ev.to_string(), "open(/a, rw)");
        assert_eq!(OpenMode::ReadOnly.to_string(), "ro");
    }
}
