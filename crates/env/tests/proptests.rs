//! Randomised property tests for the environment substrate.
//!
//! Inputs are generated with a seeded xorshift generator, so every run
//! exercises the same cases deterministically and offline.

use std::collections::BTreeMap;

use mirage_env::app::{execute, RunBehavior, RunOutputs, EXIT_ABORT, EXIT_NO_IMAGE};
use mirage_env::{
    AppLogic, ApplicationSpec, EnvPredicate, File, FileContent, FileSystem, IniDoc, LateTrigger,
    Package, PackageManager, Repository, RunInput, Version, VersionReq,
};
use mirage_trace::{OpenMode, RunId, SyscallEvent, Trace};

/// Deterministic xorshift64 generator for test inputs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn version(&mut self) -> Version {
        Version::new(
            self.below(5) as u32,
            self.below(5) as u32,
            self.below(5) as u32,
        )
    }
}

/// One run recorded as a full trace.
fn trace(
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

fn textfile(path: &str, text: &str) -> File {
    File::new(
        path,
        mirage_fingerprint::ResourceKind::Text,
        FileContent::Text(vec![text.to_string()]),
    )
}

/// Snapshots never observe later mutations of the base, and vice
/// versa, for any interleaving of inserts/removes.
#[test]
fn snapshot_isolation() {
    let mut rng = Rng::new(0xe1);
    for case in 0..48 {
        let mut base = FileSystem::new();
        for i in 0..4 {
            base.insert(textfile(&format!("/f{i}"), "orig"));
        }
        let snap = base.clone();
        let frozen: Vec<(String, FileContent)> = snap
            .iter()
            .map(|f| (f.path.clone(), f.content.clone()))
            .collect();
        for _ in 0..rng.below(24) {
            let op = rng.below(3);
            let slot = rng.below(8);
            let path = format!("/f{slot}");
            match op {
                0 => {
                    base.insert(textfile(&path, "mutated"));
                }
                1 => {
                    base.remove(&path);
                }
                _ => {
                    base.insert(textfile(&format!("/new{slot}"), "fresh"));
                }
            }
        }
        // The snapshot still shows exactly its frozen view.
        assert_eq!(snap.len(), frozen.len(), "case {case}");
        for (path, content) in frozen {
            assert_eq!(&snap.get(&path).unwrap().content, &content, "case {case}");
        }
    }
}

/// Version parsing round-trips through Display.
#[test]
fn version_roundtrip() {
    let mut rng = Rng::new(0xe2);
    for _ in 0..60 {
        let v = rng.version();
        let s = v.to_string();
        assert_eq!(s.parse::<Version>().unwrap(), v);
    }
}

/// VersionReq::Compatible implies AtLeast and same-major.
#[test]
fn compatible_implies_at_least() {
    let mut rng = Rng::new(0xe3);
    for _ in 0..200 {
        let a = rng.version();
        let b = rng.version();
        if VersionReq::Compatible(a).matches(b) {
            assert!(VersionReq::AtLeast(a).matches(b), "{a} vs {b}");
            assert_eq!(a.major, b.major, "{a} vs {b}");
        }
    }
}

/// Installing the same package twice is idempotent on the
/// filesystem and the package database.
#[test]
fn install_idempotent() {
    let mut rng = Rng::new(0xe4);
    for _ in 0..30 {
        let v = rng.version();
        let mut repo = Repository::new();
        repo.publish(Package::new("pkg", v).with_file(File::executable("/bin/pkg", "pkg", 1)));
        let mut fs = FileSystem::new();
        let mut pm = PackageManager::new();
        pm.install(&mut fs, &repo, "pkg", VersionReq::Exact(v))
            .unwrap();
        let files_before = fs.len();
        let report = pm
            .install(&mut fs, &repo, "pkg", VersionReq::Exact(v))
            .unwrap();
        assert!(report.installed.is_empty());
        assert_eq!(fs.len(), files_before);
    }
}

/// The application interpreter is deterministic for arbitrary
/// inputs, and a crash behaviour always suppresses outputs.
#[test]
fn interpreter_determinism() {
    let mut rng = Rng::new(0xe5);
    let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz".chars().collect();
    for case in 0..40 {
        let args: Vec<String> = (0..rng.below(3))
            .map(|_| {
                let len = 1 + rng.below(6);
                (0..len)
                    .map(|_| alphabet[rng.below(alphabet.len())])
                    .collect()
            })
            .collect();
        let payloads: Vec<Vec<u8>> = (0..rng.below(3))
            .map(|_| (0..rng.below(16)).map(|_| rng.next() as u8).collect())
            .collect();
        let mut fs = FileSystem::new();
        fs.insert(File::executable("/bin/app", "app", 1));
        let env = BTreeMap::new();
        let app = ApplicationSpec::new("app", "app", "/bin/app").with_logic(mirage_env::AppLogic {
            serves_net: true,
            writes_data: false,
            log_path: Some("/log".into()),
            output_path: None,
            version_sensitive: false,
        });
        let mut input = RunInput::new("w");
        for a in &args {
            input = input.arg(a.clone());
        }
        for p in &payloads {
            input = input.request("peer", p.clone());
        }
        let healthy = RunBehavior::healthy();
        let t1 = trace(&fs, &env, &app, &input, &healthy);
        let t2 = trace(&fs, &env, &app, &input, &healthy);
        assert_eq!(&t1, &t2, "case {case}");
        assert!(t1.succeeded(), "case {case}");

        let crash = RunBehavior {
            crash_on_start: true,
            ..Default::default()
        };
        let tc = trace(&fs, &env, &app, &input, &crash);
        assert!(!tc.succeeded(), "case {case}");
        assert!(tc.outputs().is_empty(), "case {case}");
    }
}

/// An outputs-only run records exactly the `Write` / `NetSend` events
/// and the exit code of the full trace of the same run, over seeded
/// specs that reach every way a run can end and every output shape.
#[test]
fn outputs_only_runs_equal_the_traced_outputs() {
    const SHAPES: [&str; 17] = [
        "missing executable",
        "fail_to_start",
        "missing required init read",
        "crash_on_start",
        "$HOME set",
        "$HOME unset",
        "tag-triggered late read",
        "untriggered late read",
        "data read, writes_data",
        "data read, read-only",
        "network request",
        "output path",
        "log path",
        "version_sensitive",
        "wrong_output_tag",
        "clean exit",
        "no output",
    ];
    let mut seen = [0usize; SHAPES.len()];
    let mut rng = Rng::new(0xe7);
    for case in 0..400 {
        let mut fs = FileSystem::new();
        if !rng.one_in(8) {
            fs.insert(File::executable("/bin/app", "app", 1 + case as u64 % 3));
        }
        if !rng.one_in(8) {
            fs.insert(File::library("/lib/libapp.so", "libapp", "1.0", 1));
        }
        if rng.one_in(2) {
            fs.insert(File::config("/home/u/.apprc", IniDoc::new().key("k", "v")));
        }
        fs.insert(File::data("/data/a", case as u64, 32));
        fs.insert(File::new(
            "/usr/share/theme",
            mirage_fingerprint::ResourceKind::Theme,
            FileContent::Binary { seed: 7, len: 16 },
        ));
        let mut env = BTreeMap::new();
        let home = rng.one_in(3);
        if !home {
            env.insert("HOME".to_string(), "/home/u".to_string());
        }
        let logic = AppLogic {
            serves_net: true,
            writes_data: rng.one_in(2),
            log_path: (!rng.one_in(3)).then(|| "/var/log/app".to_string()),
            output_path: rng.one_in(2).then(|| "/out/summary".to_string()),
            version_sensitive: rng.one_in(3),
        };
        let app = ApplicationSpec::new("app", "app", "/bin/app")
            .reads("/lib/libapp.so")
            .probes("$HOME/.apprc")
            .env("TZ")
            .late("/usr/share/theme", LateTrigger::OnInput("theme".into()))
            .late("$HOME/.apprc", LateTrigger::Always)
            .with_logic(logic.clone());
        let mut input = RunInput::new(format!("w{case}"));
        if rng.one_in(2) {
            input = input.tag("theme");
        }
        for _ in 0..rng.below(3) {
            input = input.data(if rng.one_in(4) {
                "/data/missing"
            } else {
                "/data/a"
            });
        }
        for i in 0..rng.below(3) {
            input = input.request(format!("peer{i}"), vec![case as u8, i as u8]);
        }
        let behavior = RunBehavior {
            fail_to_start: rng.one_in(10),
            crash_on_start: rng.one_in(10),
            wrong_output_tag: rng.one_in(5).then(|| "!bad".to_string()),
        };

        let full = trace(&fs, &env, &app, &input, &behavior);
        let mut outputs = RunOutputs::default();
        execute(&fs, &env, &app, &input, &behavior, &mut outputs);
        let expected: Vec<SyscallEvent> = full
            .events
            .iter()
            .filter(|e| matches!(e, SyscallEvent::Write { .. } | SyscallEvent::NetSend { .. }))
            .cloned()
            .collect();
        assert_eq!(outputs.outputs, expected, "case {case}");
        assert_eq!(outputs.exit_code, full.exit_code(), "case {case}");
        assert!(
            matches!(full.events.last(), Some(SyscallEvent::Exit { .. })),
            "case {case}"
        );

        let exit = full.exit_code();
        let ran = exit == Some(0);
        let getenv_home = |set: bool| {
            full.events.iter().any(|e| {
                matches!(e, SyscallEvent::GetEnv { name, value } if name == "HOME" && value.is_some() == set)
            })
        };
        let opened = |path: &str, mode: OpenMode| {
            full.events.iter().any(
                |e| matches!(e, SyscallEvent::Open { path: p, mode: m } if p == path && *m == mode),
            )
        };
        let late_read = full.accessed_paths().contains("/usr/share/theme");
        let shapes = [
            exit == Some(EXIT_NO_IMAGE),
            behavior.fail_to_start && exit == Some(1),
            exit == Some(EXIT_ABORT),
            behavior.crash_on_start && exit == Some(139),
            getenv_home(true),
            getenv_home(false),
            late_read,
            ran && !late_read,
            opened("/data/a", OpenMode::ReadWrite),
            opened("/data/a", OpenMode::ReadOnly),
            full.events
                .iter()
                .any(|e| matches!(e, SyscallEvent::NetSend { .. })),
            ran && logic.output_path.is_some(),
            ran && logic.log_path.is_some(),
            ran && logic.version_sensitive && !expected.is_empty(),
            ran && behavior.wrong_output_tag.is_some() && !expected.is_empty(),
            ran,
            expected.is_empty(),
        ];
        for (count, hit) in seen.iter_mut().zip(shapes) {
            *count += usize::from(hit);
        }
    }
    for (shape, count) in SHAPES.iter().zip(seen) {
        assert!(count > 0, "no case reached: {shape}");
    }
}

/// De Morgan on environment predicates: ¬(A ∧ B) ≡ (¬A ∨ ¬B).
#[test]
fn predicate_de_morgan() {
    for file_a in [false, true] {
        for file_b in [false, true] {
            let mut builder = mirage_env::MachineBuilder::new("m");
            if file_a {
                builder = builder.file(File::config("/a", IniDoc::new()));
            }
            if file_b {
                builder = builder.file(File::config("/b", IniDoc::new()));
            }
            let m = builder.build();
            let a = EnvPredicate::FileExists("/a".into());
            let b = EnvPredicate::FileExists("/b".into());
            let lhs = EnvPredicate::Not(Box::new(EnvPredicate::AllOf(vec![a.clone(), b.clone()])));
            let rhs = EnvPredicate::AnyOf(vec![
                EnvPredicate::Not(Box::new(a)),
                EnvPredicate::Not(Box::new(b)),
            ]);
            assert_eq!(lhs.eval(&m), rhs.eval(&m), "a={file_a} b={file_b}");
        }
    }
}

/// Fixing problems one at a time or in one batch yields the same
/// final problem set, and versions advance monotonically.
#[test]
fn fix_all_equals_sequential_fixes() {
    use mirage_env::{ProblemEffect, ProblemId, ProblemSpec, Upgrade};
    for n in 1usize..5 {
        let problems: Vec<ProblemSpec> = (0..n)
            .map(|i| {
                ProblemSpec::new(
                    format!("p{i}"),
                    "x",
                    EnvPredicate::Always,
                    ProblemEffect::CrashOnStart { app: "a".into() },
                )
            })
            .collect();
        let upgrade = Upgrade::new(Package::new("pkg", Version::new(1, 0, 0)), problems);
        let ids: Vec<ProblemId> = (0..n).map(|i| ProblemId(format!("p{i}"))).collect();
        let batch = upgrade.fix_all(ids.iter());
        let mut seq = upgrade.clone();
        for id in &ids {
            seq = seq.fix(id).unwrap();
        }
        assert!(batch.problems.is_empty());
        assert_eq!(batch.problems.len(), seq.problems.len());
        assert_eq!(batch.package.version, seq.package.version);
        assert!(batch.package.version > upgrade.package.version);
    }
}
