//! Application behaviour specs and the trace-emitting interpreter.
//!
//! Applications are described by data (what they read at startup, which
//! environment variables they consult, what they load lazily, what outputs
//! they produce) and *executed* by [`execute`], which emits into a
//! [`RunSink`] the same syscall event log a real strace-style tracer
//! would: all of it into a [`Trace`], only the outputs into
//! [`RunOutputs`]. Determinism is a hard requirement: the validation
//! subsystem replays runs and compares outputs byte for byte.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use mirage_fingerprint::fnv1a;
use mirage_trace::{OpenMode, SyscallEvent, Trace};

use crate::file::File;
use crate::fs::FileSystem;

/// One resource probed during the application's initialisation phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InitRead {
    /// Path to probe; a leading `$HOME` is expanded through the
    /// environment (emitting the corresponding `getenv` event).
    pub(crate) path: String,
    /// If `true`, a missing file aborts startup (broken dependency).
    pub(crate) required: bool,
}

impl InitRead {
    /// A required startup read (libraries, the main config).
    pub(crate) fn required(path: impl Into<String>) -> Self {
        InitRead {
            path: path.into(),
            required: true,
        }
    }

    /// An optional probe (e.g. `$HOME/.my.cnf`, which may not exist).
    pub(crate) fn optional(path: impl Into<String>) -> Self {
        InitRead {
            path: path.into(),
            required: false,
        }
    }
}

/// When a lazily-loaded resource is read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LateTrigger {
    /// Loaded on every run, after initialisation (late binding).
    Always,
    /// Loaded only when the run input carries the given tag
    /// (e.g. a Firefox theme loaded only when the user opens it).
    OnInput(String),
}

/// A resource loaded after the initialisation phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LateRead {
    /// Path to load.
    pub(crate) path: String,
    /// Load condition.
    pub(crate) when: LateTrigger,
}

/// Output behaviour of an application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppLogic {
    /// Serves network requests (echoes a digest of each payload).
    pub serves_net: bool,
    /// Opens its data files read-write rather than read-only.
    pub writes_data: bool,
    /// Appends a line to this log file on every run.
    pub log_path: Option<String>,
    /// Writes a derived summary file on every run.
    pub output_path: Option<String>,
    /// If `true`, outputs embed the executable build — upgrades then
    /// legitimately change I/O (the paper's §3.5 feature-upgrade case).
    pub version_sensitive: bool,
}

/// A simulated application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplicationSpec {
    /// Application name (also the trace key).
    pub name: String,
    /// Owning package name.
    pub package: String,
    /// Path of the executable image.
    pub exe: String,
    /// Ordered initialisation-phase reads.
    pub(crate) init_reads: Vec<InitRead>,
    /// Environment variables consulted at startup.
    pub(crate) env_vars: Vec<String>,
    /// Lazily-loaded resources.
    pub(crate) late_reads: Vec<LateRead>,
    /// Output behaviour.
    pub logic: AppLogic,
    /// Names of other applications sharing environmental resources with
    /// this one (the dependence information driving both validation
    /// triggering and the cluster app-overlap split).
    pub(crate) shares_with: Vec<String>,
}

impl ApplicationSpec {
    /// Creates a minimal spec.
    pub fn new(
        name: impl Into<String>,
        package: impl Into<String>,
        exe: impl Into<String>,
    ) -> Self {
        ApplicationSpec {
            name: name.into(),
            package: package.into(),
            exe: exe.into(),
            init_reads: Vec::new(),
            env_vars: Vec::new(),
            late_reads: Vec::new(),
            logic: AppLogic::default(),
            shares_with: Vec::new(),
        }
    }

    /// Adds a required init read.
    pub fn reads(mut self, path: impl Into<String>) -> Self {
        self.init_reads.push(InitRead::required(path));
        self
    }

    /// Adds an optional init probe.
    pub fn probes(mut self, path: impl Into<String>) -> Self {
        self.init_reads.push(InitRead::optional(path));
        self
    }

    /// Adds an environment variable read.
    pub fn env(mut self, var: impl Into<String>) -> Self {
        self.env_vars.push(var.into());
        self
    }

    /// Adds a late read.
    pub fn late(mut self, path: impl Into<String>, when: LateTrigger) -> Self {
        self.late_reads.push(LateRead {
            path: path.into(),
            when,
        });
        self
    }

    /// Sets the output logic.
    pub fn with_logic(mut self, logic: AppLogic) -> Self {
        self.logic = logic;
        self
    }

    /// Declares a resource-sharing relationship with another application.
    pub fn sharing_with(mut self, app: impl Into<String>) -> Self {
        self.shares_with.push(app.into());
        self
    }
}

/// One run's worth of input to an application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunInput {
    /// Human-readable label of the workload.
    pub id: String,
    /// Command-line arguments.
    pub(crate) args: Vec<String>,
    /// Data files read during the run.
    pub(crate) data_reads: Vec<String>,
    /// Network requests `(peer, payload)` served during the run.
    pub(crate) net_requests: Vec<(String, Vec<u8>)>,
    /// Tags enabling [`LateTrigger::OnInput`] reads.
    pub(crate) tags: BTreeSet<String>,
}

impl RunInput {
    /// Creates an empty input with a label.
    pub fn new(id: impl Into<String>) -> Self {
        RunInput {
            id: id.into(),
            ..Default::default()
        }
    }

    /// Adds a data file read.
    pub fn data(mut self, path: impl Into<String>) -> Self {
        self.data_reads.push(path.into());
        self
    }

    /// Adds a network request.
    pub fn request(mut self, peer: impl Into<String>, payload: impl Into<Vec<u8>>) -> Self {
        self.net_requests.push((peer.into(), payload.into()));
        self
    }

    /// Adds a late-trigger tag.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tags.insert(tag.into());
        self
    }

    /// Adds a command-line argument.
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }
}

/// Misbehaviour injected into a run by upgrade problems.
///
/// Computed by [`crate::problems::run_behavior_for`]; the default is a
/// healthy run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunBehavior {
    /// Crash (signal-style exit) at the end of initialisation.
    pub crash_on_start: bool,
    /// Refuse to start (clean non-zero exit) immediately.
    pub fail_to_start: bool,
    /// Produce outputs perturbed by this tag.
    pub wrong_output_tag: Option<String>,
}

impl RunBehavior {
    /// A healthy run.
    pub fn healthy() -> Self {
        Self::default()
    }
}

/// Exit code used for simulated crashes (SIGSEGV-style).
pub(crate) const EXIT_CRASH: i32 = 139;
/// Exit code used for clean startup refusal.
pub(crate) const EXIT_REFUSED: i32 = 1;
/// Exit code used when the executable image is missing.
pub const EXIT_NO_IMAGE: i32 = 127;
/// Exit code used when a required resource is missing (abort).
pub const EXIT_ABORT: i32 = 134;

/// What [`execute`] records a run into.
///
/// A [`Trace`] records every event. A sink whose `INPUTS` is `false`
/// gets only the outputs (`Write`, `NetSend`) and the `Exit`, and the
/// interpreter then builds no input event and renders no file that no
/// output depends on. `INPUTS` is a constant, so the choice costs
/// nothing at run time.
pub trait RunSink {
    /// Whether the sink records input events (process creation, opens,
    /// reads, closes, `getenv`, sockets, receives).
    const INPUTS: bool;
    /// Records one event.
    fn push(&mut self, event: SyscallEvent);
}

impl RunSink for Trace {
    const INPUTS: bool = true;

    fn push(&mut self, event: SyscallEvent) {
        Trace::push(self, event);
    }
}

/// The outputs of one run, in the order it produced them, and its exit
/// code: all that replay validation compares.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOutputs {
    /// The run's `Write` and `NetSend` events.
    pub outputs: Vec<SyscallEvent>,
    /// Exit code, once the run has ended.
    pub exit_code: Option<i32>,
}

impl RunSink for RunOutputs {
    const INPUTS: bool = false;

    fn push(&mut self, event: SyscallEvent) {
        match event {
            SyscallEvent::Exit { code } => self.exit_code = Some(code),
            output => self.outputs.push(output),
        }
    }
}

/// Records a `getenv` of `name`.
fn getenv<S: RunSink>(name: &str, env_vars: &BTreeMap<String, String>, sink: &mut S) {
    if S::INPUTS {
        sink.push(SyscallEvent::GetEnv {
            name: name.to_string(),
            value: env_vars.get(name).cloned(),
        });
    }
}

/// Expands a leading `$HOME` in `path`, recording the `getenv` event.
fn expand_home<'p, S: RunSink>(
    path: &'p str,
    env_vars: &BTreeMap<String, String>,
    sink: &mut S,
) -> Option<Cow<'p, str>> {
    let Some(rest) = path.strip_prefix("$HOME") else {
        return Some(Cow::Borrowed(path));
    };
    getenv("HOME", env_vars, sink);
    env_vars
        .get("HOME")
        .map(|h| Cow::Owned(format!("{h}{rest}")))
}

/// Looks up `path`, recording open/read/close events if it exists.
fn read_file<'f, S: RunSink>(
    fs: &'f FileSystem,
    path: &str,
    mode: OpenMode,
    sink: &mut S,
) -> Option<&'f File> {
    let file = fs.get(path)?;
    if S::INPUTS {
        sink.push(SyscallEvent::Open {
            path: path.to_string(),
            mode,
        });
        sink.push(SyscallEvent::Read {
            path: path.to_string(),
            len: file.content.render().len(),
        });
        sink.push(SyscallEvent::Close {
            path: path.to_string(),
        });
    }
    Some(file)
}

/// Executes an application spec against a filesystem, recording the
/// run into `sink`.
///
/// The run is a pure function of `(fs, env_vars, app, input, behavior)`;
/// a [`Trace`] sink carries its own machine and run labels.
pub fn execute<S: RunSink>(
    fs: &FileSystem,
    env_vars: &BTreeMap<String, String>,
    app: &ApplicationSpec,
    input: &RunInput,
    behavior: &RunBehavior,
    sink: &mut S,
) {
    if S::INPUTS {
        sink.push(SyscallEvent::ProcessCreate {
            exe: app.exe.clone(),
            args: input.args.clone(),
        });
    }
    let Some(exe) = fs.get(&app.exe) else {
        return sink.push(SyscallEvent::Exit {
            code: EXIT_NO_IMAGE,
        });
    };
    if behavior.fail_to_start {
        return sink.push(SyscallEvent::Exit { code: EXIT_REFUSED });
    }

    // Initialisation phase: ordered resource loads.
    for init in &app.init_reads {
        let Some(path) = expand_home(&init.path, env_vars, sink) else {
            continue;
        };
        let found = read_file(fs, &path, OpenMode::ReadOnly, sink).is_some();
        if !found && init.required {
            return sink.push(SyscallEvent::Exit { code: EXIT_ABORT });
        }
    }
    for var in &app.env_vars {
        getenv(var, env_vars, sink);
    }
    if behavior.crash_on_start {
        return sink.push(SyscallEvent::Exit { code: EXIT_CRASH });
    }

    // Late-bound resources.
    for late in &app.late_reads {
        let load = match &late.when {
            LateTrigger::Always => true,
            LateTrigger::OnInput(tag) => input.tags.contains(tag),
        };
        if load {
            if let Some(path) = expand_home(&late.path, env_vars, sink) {
                read_file(fs, &path, OpenMode::ReadOnly, sink);
            }
        }
    }

    // Workload: data files. Their bytes only reach the summary output.
    let data_mode = if app.logic.writes_data {
        OpenMode::ReadWrite
    } else {
        OpenMode::ReadOnly
    };
    let mut data_digest: u64 = 0;
    for path in &input.data_reads {
        if let Some(f) = read_file(fs, path, data_mode, sink) {
            if app.logic.output_path.is_some() {
                data_digest ^= fnv1a(&f.content.render());
            }
        }
    }

    // Workload: network requests.
    let perturbation = behavior.wrong_output_tag.as_deref().unwrap_or("");
    let version_salt = if app.logic.version_sensitive {
        fnv1a(&exe.content.render())
    } else {
        0
    };
    for (peer, payload) in &input.net_requests {
        if S::INPUTS {
            sink.push(SyscallEvent::Socket { peer: peer.clone() });
            sink.push(SyscallEvent::NetRecv {
                peer: peer.clone(),
                data: payload.clone(),
            });
        }
        let digest = fnv1a(payload) ^ version_salt;
        let reply = format!("reply:{digest:016x}{perturbation}");
        sink.push(SyscallEvent::NetSend {
            peer: peer.clone(),
            data: reply.into_bytes(),
        });
    }

    // Outputs.
    if let Some(out) = &app.logic.output_path {
        let body = format!("summary:{:016x}{perturbation}", data_digest ^ version_salt);
        sink.push(SyscallEvent::Write {
            path: out.clone(),
            data: body.into_bytes(),
        });
    }
    if let Some(log) = &app.logic.log_path {
        if S::INPUTS {
            sink.push(SyscallEvent::Open {
                path: log.clone(),
                mode: OpenMode::WriteOnly,
            });
        }
        let line = format!("{}: run {} ok{perturbation}\n", app.name, input.id);
        sink.push(SyscallEvent::Write {
            path: log.clone(),
            data: line.into_bytes(),
        });
        if S::INPUTS {
            sink.push(SyscallEvent::Close { path: log.clone() });
        }
    }
    sink.push(SyscallEvent::Exit { code: 0 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::IniDoc;
    use crate::file::File;
    use mirage_trace::RunId;

    /// One traced run.
    fn run(
        fs: &FileSystem,
        env: &BTreeMap<String, String>,
        app: &ApplicationSpec,
        input: &RunInput,
        behavior: &RunBehavior,
    ) -> Trace {
        let mut trace = Trace::new("m", app.name.clone(), RunId(0));
        execute(fs, env, app, input, behavior, &mut trace);
        trace
    }

    fn world() -> (FileSystem, BTreeMap<String, String>, ApplicationSpec) {
        let mut fs = FileSystem::new();
        fs.insert(File::executable("/usr/sbin/mysqld", "mysqld", 4));
        fs.insert(File::library("/lib/libc.so.6", "libc", "2.3", 1));
        fs.insert(File::config(
            "/etc/mysql/my.cnf",
            IniDoc::new().section("mysqld").key("port", "3306"),
        ));
        fs.insert(File::data("/var/lib/mysql/ibdata1", 5, 64));
        let mut env = BTreeMap::new();
        env.insert("HOME".to_string(), "/root".to_string());
        let app = ApplicationSpec::new("mysqld", "mysql", "/usr/sbin/mysqld")
            .reads("/lib/libc.so.6")
            .reads("/etc/mysql/my.cnf")
            .probes("$HOME/.my.cnf")
            .env("TZ")
            .with_logic(AppLogic {
                serves_net: true,
                writes_data: true,
                log_path: Some("/var/log/mysql.log".into()),
                output_path: None,
                version_sensitive: false,
            });
        (fs, env, app)
    }

    fn input() -> RunInput {
        RunInput::new("q1")
            .arg("--port=3306")
            .data("/var/lib/mysql/ibdata1")
            .request("client:1", b"SELECT 1".to_vec())
    }

    #[test]
    fn healthy_run_structure() {
        let (fs, env, app) = world();
        let t = run(&fs, &env, &app, &input(), &RunBehavior::healthy());
        assert!(t.succeeded());
        let seq = t.access_sequence();
        assert_eq!(seq[0], "/usr/sbin/mysqld");
        assert_eq!(seq[1], "/lib/libc.so.6");
        assert_eq!(seq[2], "/etc/mysql/my.cnf");
        // $HOME probe: file missing, so no access recorded, but getenv is.
        assert!(t.env_vars_read().contains("HOME"));
        assert!(t.env_vars_read().contains("TZ"));
        // Data file opened read-write.
        assert_eq!(
            t.open_modes()["/var/lib/mysql/ibdata1"],
            OpenMode::ReadWrite
        );
        // One reply + one log write.
        assert_eq!(t.outputs().len(), 2);
    }

    #[test]
    fn determinism() {
        let (fs, env, app) = world();
        let a = run(&fs, &env, &app, &input(), &RunBehavior::healthy());
        let b = run(&fs, &env, &app, &input(), &RunBehavior::healthy());
        assert_eq!(a, b);
    }

    #[test]
    fn optional_probe_found_when_file_exists() {
        let (mut fs, env, app) = world();
        fs.insert(File::config(
            "/root/.my.cnf",
            IniDoc::new().section("client").key("user", "root"),
        ));
        let t = run(&fs, &env, &app, &input(), &RunBehavior::healthy());
        assert!(t.accessed_paths().contains("/root/.my.cnf"));
    }

    #[test]
    fn missing_required_resource_aborts() {
        let (mut fs, env, app) = world();
        fs.remove("/lib/libc.so.6");
        let t = run(&fs, &env, &app, &input(), &RunBehavior::healthy());
        assert_eq!(t.exit_code(), Some(EXIT_ABORT));
        assert!(t.outputs().is_empty());
    }

    #[test]
    fn missing_exe_fails_immediately() {
        let (mut fs, env, app) = world();
        fs.remove("/usr/sbin/mysqld");
        let t = run(&fs, &env, &app, &input(), &RunBehavior::healthy());
        assert_eq!(t.exit_code(), Some(EXIT_NO_IMAGE));
    }

    #[test]
    fn injected_crash_and_refusal() {
        let (fs, env, app) = world();
        let crash = RunBehavior {
            crash_on_start: true,
            ..Default::default()
        };
        let t = run(&fs, &env, &app, &input(), &crash);
        assert_eq!(t.exit_code(), Some(EXIT_CRASH));
        // Crash happens after init: libraries were loaded.
        assert!(t.accessed_paths().contains("/lib/libc.so.6"));

        let refuse = RunBehavior {
            fail_to_start: true,
            ..Default::default()
        };
        let t = run(&fs, &env, &app, &input(), &refuse);
        assert_eq!(t.exit_code(), Some(EXIT_REFUSED));
        assert!(!t.accessed_paths().contains("/lib/libc.so.6"));
    }

    #[test]
    fn wrong_output_perturbs_replies() {
        let (fs, env, app) = world();
        let healthy = run(&fs, &env, &app, &input(), &RunBehavior::healthy());
        let bad = RunBehavior {
            wrong_output_tag: Some("!corrupt".into()),
            ..Default::default()
        };
        let t = run(&fs, &env, &app, &input(), &bad);
        assert!(t.succeeded(), "wrong output is not a crash");
        assert_ne!(
            healthy.outputs().len(),
            0,
            "sanity: healthy run has outputs"
        );
        let healthy_outputs: Vec<_> = healthy.outputs().into_iter().cloned().collect();
        let bad_outputs: Vec<_> = t.outputs().into_iter().cloned().collect();
        assert_ne!(healthy_outputs, bad_outputs);
    }

    #[test]
    fn version_sensitive_output_changes_with_build() {
        let (mut fs, env, mut app) = world();
        app.logic.version_sensitive = true;
        let a = run(&fs, &env, &app, &input(), &RunBehavior::healthy());
        let a_v4_outputs: Vec<_> = a.outputs().into_iter().cloned().collect();
        fs.insert(File::executable("/usr/sbin/mysqld", "mysqld", 5));
        let b = run(&fs, &env, &app, &input(), &RunBehavior::healthy());
        let b_outputs: Vec<_> = b.outputs().into_iter().cloned().collect();
        assert_ne!(a_v4_outputs[0], b_outputs[0]);

        // ...but a version-insensitive app keeps identical outputs even
        // though the build changed.
        app.logic.version_sensitive = false;
        let c = run(&fs, &env, &app, &input(), &RunBehavior::healthy());
        let c_outputs: Vec<_> = c.outputs().into_iter().cloned().collect();
        app.logic.version_sensitive = true;
        fs.insert(File::executable("/usr/sbin/mysqld", "mysqld", 4));
        app.logic.version_sensitive = false;
        let d = run(&fs, &env, &app, &input(), &RunBehavior::healthy());
        let d_outputs: Vec<_> = d.outputs().into_iter().cloned().collect();
        assert_eq!(c_outputs, d_outputs);
    }

    #[test]
    fn late_reads_trigger_on_tags() {
        let (mut fs, env, mut app) = world();
        fs.insert(File::new(
            "/usr/share/themes/dark.theme",
            mirage_fingerprint::ResourceKind::Theme,
            crate::content::FileContent::Binary { seed: 1, len: 32 },
        ));
        app = app.late(
            "/usr/share/themes/dark.theme",
            LateTrigger::OnInput("theme".into()),
        );
        let plain = run(&fs, &env, &app, &input(), &RunBehavior::healthy());
        assert!(!plain
            .accessed_paths()
            .contains("/usr/share/themes/dark.theme"));
        let tagged = run(
            &fs,
            &env,
            &app,
            &input().tag("theme"),
            &RunBehavior::healthy(),
        );
        assert!(tagged
            .accessed_paths()
            .contains("/usr/share/themes/dark.theme"));
    }
}
