//! Seeded properties of the validator against oracles that do the work
//! the long way: replay full traces, compare [`summarize_outputs`], and
//! diff the whole sandbox filesystem against the live one.

use std::collections::BTreeSet;

use mirage_env::problems::run_behavior_for;
use mirage_env::{
    AppLogic, ApplicationSpec, EnvPredicate, File, FileSystem, IniDoc, Machine, MachineBuilder,
    Package, ProblemEffect, ProblemSpec, Repository, RunInput, Upgrade, Version, VersionReq,
};
use mirage_trace::RunId;

use crate::compare::summarize_outputs;
use crate::validate::{classify_exit, AcceptancePolicy, AppVerdict, FailureKind, Validator};
use crate::{RecordedRun, Sandbox, ValidationReport};

/// Deterministic xorshift64 generator for test inputs.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

const LIB: &str = "/usr/lib/libx.so";
const DOC: &str = "/usr/share/app/doc";
const CONF: &str = "/etc/app.conf";

fn lib(major: u32) -> Package {
    Package::new("libx", Version::new(major, 0, 0)).with_file(File::library(
        LIB,
        "libx",
        format!("{major}.0"),
        u64::from(major),
    ))
}

fn doc(text: &str) -> File {
    File::log(DOC, vec![text.to_string()])
}

/// A machine with `app` (which pulls `libx` 1), maybe `tool` (or only its
/// spec, its image missing), a `viewer` sharing resources with `tool`,
/// an unrelated `ed`; an upgrade of `app` that may change its image, its
/// doc (or ship a content-equal copy in a new allocation), ship the
/// config `app` requires, pull `libx` 2 or a package nobody publishes,
/// and carry problems; and recorded runs of every application.
fn world(rng: &mut Rng) -> (Repository, Machine, Upgrade, Vec<RecordedRun>) {
    let mut repo = Repository::new();
    repo.publish(lib(1));
    repo.publish(lib(2));
    repo.publish(
        Package::new("app", Version::new(1, 0, 0))
            .with_file(File::executable("/usr/bin/app", "app", 1))
            .with_file(doc("v1"))
            .with_dep("libx", VersionReq::Compatible(Version::new(1, 0, 0))),
    );
    repo.publish(
        Package::new("tool", Version::new(1, 0, 0))
            .with_file(File::executable("/usr/bin/tool", "tool", 1))
            .with_dep("libx", VersionReq::Any),
    );

    let mut app = ApplicationSpec::new("app", "app", "/usr/bin/app")
        .reads(LIB)
        .probes("$HOME/.apprc")
        .with_logic(AppLogic {
            serves_net: true,
            writes_data: rng.one_in(2),
            log_path: (!rng.one_in(3)).then(|| "/var/log/app".to_string()),
            output_path: rng.one_in(2).then(|| "/srv/out".to_string()),
            version_sensitive: rng.one_in(4),
        });
    if rng.one_in(3) {
        app = app.reads(CONF);
    }
    let mut b = MachineBuilder::new("m")
        .install(&repo, "app", VersionReq::Any)
        .file(File::data("/srv/data", rng.below(4) as u64, 24))
        .file(File::executable("/usr/bin/viewer", "viewer", 1))
        .file(File::executable("/usr/bin/ed", "ed", 1))
        .app(app)
        .app(
            ApplicationSpec::new("tool", "tool", "/usr/bin/tool")
                .reads(LIB)
                .with_logic(AppLogic {
                    log_path: Some("/var/log/tool".into()),
                    ..AppLogic::default()
                }),
        )
        .app(ApplicationSpec::new("viewer", "viewer", "/usr/bin/viewer").sharing_with("tool"))
        .app(ApplicationSpec::new("ed", "ed", "/usr/bin/ed"));
    if !rng.one_in(4) {
        b = b.install(&repo, "tool", VersionReq::Any);
    }
    if rng.one_in(2) {
        b = b.env_var("HOME", "/home/u");
    }
    if rng.one_in(3) {
        b = b.file(File::config(CONF, IniDoc::new().key("mode", "old")));
    }
    if rng.one_in(5) {
        b = b.file(doc("edited by the user"));
    }
    let machine = b.build();

    let mut package = Package::new("app", Version::new(2, 0, 0))
        .with_file(File::executable(
            "/usr/bin/app",
            "app",
            1 + rng.below(2) as u64,
        ))
        .with_file(doc(if rng.one_in(2) { "v1" } else { "v2" }));
    if rng.one_in(3) {
        package = package.with_file(File::config(CONF, IniDoc::new().key("mode", "new")));
    }
    package = match rng.below(6) {
        0 | 1 => package.with_dep("libx", VersionReq::Compatible(Version::new(2, 0, 0))),
        2 => package.with_dep("ghost", VersionReq::Any),
        _ => package.with_dep("libx", VersionReq::Compatible(Version::new(1, 0, 0))),
    };
    let mut problems = Vec::new();
    for (i, target) in ["app", "tool"].into_iter().enumerate() {
        if rng.one_in(2) {
            continue;
        }
        let effect = match rng.below(3) {
            0 => ProblemEffect::CrashOnStart { app: target.into() },
            1 => ProblemEffect::FailToStart { app: target.into() },
            _ => ProblemEffect::WrongOutput {
                app: target.into(),
                tag: "!bad".into(),
            },
        };
        let trigger = match rng.below(3) {
            0 => EnvPredicate::Always,
            1 => EnvPredicate::FileExists(CONF.into()),
            _ => EnvPredicate::EnvVarSet("HOME".into()),
        };
        problems.push(ProblemSpec::new(format!("p{i}"), "bug", trigger, effect));
    }
    let upgrade = Upgrade::new(package, problems);

    let mut runs = Vec::new();
    for app in ["app", "tool", "viewer"] {
        for _ in 0..rng.below(3) {
            let mut input = RunInput::new(format!("w{}", runs.len()));
            if rng.one_in(2) {
                input = input.data("/srv/data");
            }
            for i in 0..rng.below(3) {
                input = input.request(format!("peer{i}"), vec![i as u8; 1 + i]);
            }
            let trace = machine.run_app(app, &input, RunId(runs.len() as u64));
            runs.push(RecordedRun::new(input, trace));
        }
    }
    (repo, machine, upgrade, runs)
}

/// Every path whose presence or contents differ between two filesystems.
fn filesystem_diff(a: &FileSystem, b: &FileSystem) -> BTreeSet<String> {
    a.paths()
        .chain(b.paths())
        .filter(|path| a.get(path) != b.get(path))
        .map(str::to_string)
        .collect()
}

/// Validation the long way: full traces of every replay, summaries of
/// both sides, and the whole-filesystem diff.
fn oracle(
    policy: AcceptancePolicy,
    machine: &Machine,
    repo: &Repository,
    upgrade: &Upgrade,
    runs: &[RecordedRun],
) -> ValidationReport {
    let mut sandbox = Sandbox::boot(machine);
    if sandbox.apply_upgrade(repo, upgrade).is_err() {
        return ValidationReport {
            upgrade: upgrade.id(),
            machine: machine.id.clone(),
            changed_paths: BTreeSet::new(),
            verdicts: vec![AppVerdict {
                app: upgrade.package.name.clone(),
                result: Err(FailureKind::Integration { exit_code: 127 }),
                runs_tested: 0,
            }],
        };
    }
    let changed_paths = filesystem_diff(&sandbox.machine.fs, &machine.fs);
    let mut verdicts = Vec::new();
    for app in sandbox.machine.apps_affected_by(&changed_paths) {
        let behavior = run_behavior_for(&sandbox.machine, &app, &upgrade.problems);
        let app_runs: Vec<&RecordedRun> = runs.iter().filter(|r| r.app() == app).collect();
        let replay = |input: &RunInput, run| {
            sandbox
                .machine
                .run_app_with_behavior(&app, input, run, &behavior)
        };
        let (result, runs_tested) = if app_runs.is_empty() {
            let trace = replay(&RunInput::new("integration-check"), RunId(0));
            let result = trace.map_or(Ok(()), |t| classify_exit(t.exit_code()));
            (result, 0)
        } else {
            let mut outcome = (Ok(()), app_runs.len());
            for run in &app_runs {
                let replayed = replay(&run.input, run.trace.run).expect("installed app");
                if let Err(kind) = classify_exit(replayed.exit_code()) {
                    outcome.0 = Err(kind);
                    break;
                }
                let diffs = summarize_outputs(&run.trace).diff(&summarize_outputs(&replayed));
                if !diffs.is_empty() && policy == AcceptancePolicy::RejectDifferences {
                    let diffs = diffs.iter().map(ToString::to_string).collect();
                    outcome.0 = Err(FailureKind::OutputMismatch { diffs });
                    break;
                }
            }
            outcome
        };
        verdicts.push(AppVerdict {
            app,
            result,
            runs_tested,
        });
    }
    ValidationReport {
        upgrade: upgrade.id(),
        machine: machine.id.clone(),
        changed_paths,
        verdicts,
    }
}

/// Over seeded machine/upgrade pairs, the validator's outputs-only
/// replay and install-derived changed paths give the report the full
/// replay gives, under both policies; every verdict shape occurs. On
/// every pass, the sandbox machine integration adopts has the
/// filesystem and package database of the live machine after
/// `apply_package`.
#[test]
fn validation_equals_the_full_replay_oracle() {
    const SHAPES: [&str; 8] = [
        "pass",
        "crash",
        "output mismatch",
        "integration failure at install",
        "integration failure at replay",
        "dependency-pulled library changed",
        "no traces: integration check only",
        "mismatch accepted by policy",
    ];
    let mut seen = [0usize; SHAPES.len()];
    let mut adopted_passes = 0;
    let mut rng = Rng(0x7e57_0001);
    for case in 0..300 {
        let (repo, machine, upgrade, runs) = world(&mut rng);
        let mut reports = [None, None];
        for (slot, policy) in [
            AcceptancePolicy::RejectDifferences,
            AcceptancePolicy::AcceptDifferences,
        ]
        .into_iter()
        .enumerate()
        {
            let (got, adopted) = Validator::with_policy(policy)
                .validate_in_sandbox(&machine, &repo, &upgrade, &runs);
            let want = oracle(policy, &machine, &repo, &upgrade, &runs);
            assert_eq!(got, want, "case {case}, {policy:?}");
            if got.passed() {
                // Integration adopts what installing on the live machine makes.
                let adopted = adopted.expect("a passing upgrade installed");
                let mut live = machine.clone();
                live.pkgs
                    .apply_package(&mut live.fs, &repo, &upgrade.package)
                    .expect("installs on the live machine too");
                assert_eq!(adopted.fs, live.fs, "case {case}, {policy:?}");
                assert_eq!(adopted.pkgs, live.pkgs, "case {case}, {policy:?}");
                adopted_passes += 1;
            }
            reports[slot] = Some(got);
        }
        let [Some(strict), Some(lenient)] = reports else {
            unreachable!()
        };
        let failures = || {
            strict
                .verdicts
                .iter()
                .filter_map(|v| v.result.as_ref().err())
        };
        let shapes = [
            strict.passed() && !strict.verdicts.is_empty(),
            failures().any(|k| matches!(k, FailureKind::Crash { .. })),
            failures().any(|k| matches!(k, FailureKind::OutputMismatch { .. })),
            strict.changed_paths.is_empty()
                && failures().any(|k| matches!(k, FailureKind::Integration { .. })),
            !strict.changed_paths.is_empty()
                && failures().any(|k| matches!(k, FailureKind::Integration { .. })),
            strict.changed_paths.contains(LIB),
            strict
                .verdicts
                .iter()
                .any(|v| v.runs_tested == 0 && v.result.is_ok()),
            !strict.passed() && lenient.passed(),
        ];
        for (count, hit) in seen.iter_mut().zip(shapes) {
            *count += usize::from(hit);
        }
    }
    for (shape, count) in SHAPES.iter().zip(seen) {
        assert!(count > 0, "no case reached: {shape}");
    }
    assert!(adopted_passes > 0);
}

/// The paths an install wrote that differ from the live machine's are
/// exactly the whole-filesystem diff, including when the upgrade ships
/// a content-equal copy of a live file in a separate allocation.
#[test]
fn install_changed_paths_equal_the_filesystem_diff() {
    let (mut equal_copies, mut changed_docs) = (0, 0);
    let mut rng = Rng(0x7e57_0002);
    for case in 0..300 {
        let (repo, machine, upgrade, _) = world(&mut rng);
        let mut sandbox = Sandbox::boot(&machine);
        let Ok(install) = sandbox.apply_upgrade(&repo, &upgrade) else {
            continue;
        };
        let changed = sandbox.changed_paths(&install, &machine);
        assert_eq!(
            changed,
            filesystem_diff(&sandbox.machine.fs, &machine.fs),
            "case {case}"
        );
        let (live, new) = (machine.fs.get(DOC), sandbox.machine.fs.get(DOC));
        if live == new && !std::ptr::eq(live.unwrap(), new.unwrap()) {
            assert!(!changed.contains(DOC), "case {case}");
            equal_copies += 1;
        } else if live != new {
            changed_docs += 1;
        }
    }
    assert!(equal_copies > 0 && changed_docs > 0);
}
