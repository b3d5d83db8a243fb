//! The fleet's clustering inputs, computed once per distinct
//! environment, equal the per-agent inputs in value and order.
//!
//! Fleets are generated with a seeded xorshift generator, so every run
//! exercises the same cases deterministically and offline.

use std::sync::Arc;

use mirage_core::{fleet_inputs, UserAgent, Vendor};
use mirage_env::{
    ApplicationSpec, File, IniDoc, LateTrigger, MachineBuilder, Package, Repository, RunInput,
    Version, VersionReq,
};
use mirage_fingerprint::ImportanceFilter;
use mirage_heuristic::RuleSet;
use mirage_telemetry::{Registry, Telemetry};

/// Deterministic xorshift64 generator for test fleets.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
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

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// `app` 1.0.0 and 1.1.0; `app` 1.2.0, which ships 1.0.0's executable
/// and no library; and a `helper` package.
fn repository() -> Repository {
    let mut repo = Repository::new();
    for (minor, build) in [(0, 10), (1, 11)] {
        repo.publish(
            Package::new("app", Version::new(1, minor, 0))
                .with_file(File::executable("/usr/bin/app", "app", build))
                .with_file(File::library(
                    "/usr/lib/libapp.so",
                    "libapp",
                    format!("1.{minor}"),
                    build,
                )),
        );
    }
    repo.publish(
        Package::new("app", Version::new(1, 2, 0)).with_file(File::executable(
            "/usr/bin/app",
            "app",
            10,
        )),
    );
    repo.publish(
        Package::new("helper", Version::new(0, 9, 0)).with_file(File::executable(
            "/usr/bin/helper",
            "helper",
            9,
        )),
    );
    repo
}

/// The upgraded application: a required library, two optional config
/// probes, a probed path whose kind varies by machine, an environment
/// variable, and a theme loaded only on tagged runs.
fn app_spec() -> ApplicationSpec {
    ApplicationSpec::new("app", "app", "/usr/bin/app")
        .reads("/usr/lib/libapp.so")
        .probes("/etc/app/app.conf")
        .probes("/etc/app/extra.conf")
        .probes("/opt/app/plugin")
        .env("APP_MODE")
        .late("/usr/share/app/theme", LateTrigger::OnInput("theme".into()))
}

/// One environment: each field is one choice a machine's clustering
/// input may depend on, and has few values.
#[derive(Clone, Copy)]
struct Env {
    /// `app` 1.0.0, 1.1.0, or 1.2.0 with 1.0.0's library placed by
    /// hand: the files of 1.0.0 under another package record.
    minor: u32,
    /// `/etc/app/app.conf`: missing, or with `mode` fast or slow, with
    /// or without a `cache` key.
    conf: Option<(usize, bool)>,
    /// `/etc/app/extra.conf` present; missing, the traces differ.
    extra: bool,
    /// `/opt/app/plugin`: a library, data, or missing.
    plugin: usize,
    /// `APP_MODE` (read by the app): unset, fast or slow.
    app_mode: usize,
    /// `APP_MODE` is set to `tuned` after the runs were recorded, so the
    /// traces show the old value and the fingerprint the new one.
    retuned: bool,
    /// `HOME` (never read): unset or one of two values.
    home: Option<usize>,
    /// Applications beside `app`: none, `helper`, or `helper` and `peer`.
    others: usize,
    /// The runs recorded: w1 w2, w2 w1, or w1 alone.
    runs: usize,
    /// The first run carries the `theme` tag.
    theme: bool,
    /// A `helper` run is recorded between the app's runs.
    helper_run: bool,
}

impl Env {
    fn random(rng: &mut Rng) -> Self {
        Env {
            minor: [0, 0, 0, 1, 2][rng.below(5)],
            conf: rng.chance(70).then(|| (rng.below(2), rng.chance(30))),
            extra: rng.chance(50),
            plugin: rng.below(3),
            app_mode: rng.below(3),
            retuned: rng.chance(20),
            home: rng.chance(30).then(|| rng.below(2)),
            others: rng.below(3),
            runs: rng.below(3),
            theme: rng.chance(25),
            helper_run: rng.chance(20),
        }
    }

    /// The same environment with one choice drawn again.
    fn nudged(mut self, rng: &mut Rng) -> Self {
        let other = Env::random(rng);
        match rng.below(11) {
            0 => self.minor = other.minor,
            1 => self.conf = other.conf,
            2 => self.extra = other.extra,
            3 => self.plugin = other.plugin,
            4 => self.app_mode = other.app_mode,
            5 => self.home = other.home,
            6 => self.others = other.others,
            7 => self.runs = other.runs,
            8 => self.theme = other.theme,
            9 => self.helper_run = other.helper_run,
            _ => self.retuned = other.retuned,
        }
        self
    }

    /// A machine in this environment, with its recorded runs. Its config
    /// files are built for it, so equal contents sit in separate
    /// allocations; package files are the repository's own.
    fn agent(self, repo: &Repository, id: String) -> UserAgent {
        let version = VersionReq::Exact(Version::new(1, self.minor, 0));
        let mut b = MachineBuilder::new(id)
            .install(repo, "app", version)
            .app(app_spec())
            .file(File::data("/usr/share/app/theme", 7, 64));
        if let Some((mode, cache)) = self.conf {
            // Config values that differ in one key.
            let mut doc = IniDoc::new()
                .section("main")
                .key("port", "8080")
                .key("mode", ["fast", "slow"][mode]);
            if cache {
                doc = doc.key("cache", "on");
            }
            b = b.file(File::config("/etc/app/app.conf", doc));
        }
        if self.minor == 2 {
            b = b.file(File::library("/usr/lib/libapp.so", "libapp", "1.0", 10));
        }
        if self.extra {
            b = b.file(File::config(
                "/etc/app/extra.conf",
                IniDoc::new().key("extra", "1"),
            ));
        }
        b = match self.plugin {
            // Differing kinds at one accessed path.
            0 => b.file(File::library("/opt/app/plugin", "plugin", "2.0", 3)),
            1 => b.file(File::data("/opt/app/plugin", 3, 32)),
            _ => b,
        };
        if self.app_mode > 0 {
            b = b.env_var("APP_MODE", ["fast", "slow"][self.app_mode - 1]);
        }
        if let Some(home) = self.home {
            b = b.env_var("HOME", format!("/home/u{home}"));
        }
        if self.others > 0 {
            // Overlapping applications: `helper` reads the upgraded
            // app's library, and `peer` shares resources with `helper`.
            b = b.install(repo, "helper", VersionReq::Any).app(
                ApplicationSpec::new("helper", "helper", "/usr/bin/helper")
                    .reads("/usr/lib/libapp.so"),
            );
        }
        if self.others > 1 {
            b = b.app(
                ApplicationSpec::new("peer", "helper", "/usr/bin/peer").sharing_with("helper"),
            );
        }
        let mut agent = UserAgent::new(b.build());
        let runs: &[&str] = [&["w1", "w2"][..], &["w2", "w1"], &["w1"]][self.runs];
        for (n, id) in runs.iter().enumerate() {
            let mut input = RunInput::new(*id);
            if n == 0 && self.theme {
                input = input.tag("theme");
            }
            agent.collect("app", input);
            if n == 0 && self.helper_run {
                // Another application's run between the app's runs.
                agent.collect("helper", RunInput::new("h"));
            }
        }
        if self.retuned {
            (agent.machine.env).insert("APP_MODE".into(), "tuned".into());
        }
        agent
    }
}

/// Over random fleets, `fleet_inputs` equals `clustering_input` called
/// on every agent, in agent order, and so does the clustering built on
/// it; the fleets repeat environments, so the inputs are shared.
#[test]
fn fleet_inputs_equal_per_agent_inputs() {
    let repo = repository();
    let reference = MachineBuilder::new("ref")
        .install(&repo, "app", VersionReq::Exact(Version::new(1, 0, 0)))
        .app(app_spec())
        .build();
    let registry = Arc::new(Registry::new(64));
    let vendor = Vendor::new(reference, repo)
        .with_diameter(1)
        .with_rules(RuleSet::new().include("/opt/app/**"))
        .with_importance(ImportanceFilter::new().truncate_suffix(["/etc/app/app.conf"], 2))
        .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)));
    let classification =
        vendor.classify_reference("app", &[RunInput::new("w1"), RunInput::new("w2")]);
    let reference = vendor.reference_fingerprint(&classification);

    let environments_so_far = || {
        let counters = registry.snapshot().counters;
        counters
            .get("campaign.fleet_environments")
            .copied()
            .unwrap_or(0)
    };
    let (mut machines, mut environments, mut distinct_inputs) = (0, 0, 0);
    for seed in 0..40 {
        let mut rng = Rng::new(seed);
        // A few environments, most machines in one of them as it is,
        // the rest one choice away from one.
        let envs: Vec<Env> = (0..2 + rng.below(5))
            .map(|_| Env::random(&mut rng))
            .collect();
        let fleet: Vec<UserAgent> = (0..20 + rng.below(60))
            .map(|i| {
                let env = envs[rng.below(envs.len())];
                let env = if rng.chance(30) {
                    env.nudged(&mut rng)
                } else {
                    env
                };
                env.agent(&vendor.repo, format!("m{i:03}"))
            })
            .collect();
        let before = environments_so_far();
        let shared = fleet_inputs(&fleet, "app", &vendor, &reference);
        let per_agent: Vec<_> = (fleet.iter())
            .map(|a| a.clustering_input("app", &vendor, &reference))
            .collect();
        assert_eq!(shared, per_agent, "seed {seed}");
        assert_eq!(vendor.cluster(&shared), vendor.cluster(&per_agent));

        machines += fleet.len();
        environments += environments_so_far() - before;
        let mut diffs: Vec<_> = per_agent
            .iter()
            .map(|m| (&m.diff.parsed, &m.diff.content, &m.overlapping_apps))
            .collect();
        diffs.sort();
        diffs.dedup();
        distinct_inputs += diffs.len();
    }
    // Every environment yields one input at most, most machines share
    // theirs, and the fleets differ in their inputs.
    assert!(
        distinct_inputs as u64 <= environments && environments * 2 < machines as u64,
        "{machines} machines, {environments} environments, {distinct_inputs} distinct inputs"
    );
    assert!(
        distinct_inputs > 40 * 2,
        "{distinct_inputs} distinct inputs"
    );
}
