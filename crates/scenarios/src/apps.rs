//! The Table 1 application models (paper §4.1).
//!
//! Table 1 scores the environmental-resource heuristic on one desktop
//! application (Firefox) and three server applications (Apache, PHP,
//! MySQL). The real applications are unavailable here, so each is
//! modelled as a synthetic file population plus a behaviour spec whose
//! trace structure reproduces the *mechanism* behind each paper number:
//!
//! | App | Files | Env | FP | FN | Rules | Mechanism |
//! |---|---|---|---|---|---|---|
//! | firefox | 907 | 839 | 1 | 23 | 7 | extensions/themes/fonts load on demand (missed); a session log touched at startup (false positive) |
//! | apache  | 400 | 251 | 133 | 0 | 2 | the access log is touched during initialisation and popular HTML documents are read-only in every run |
//! | php     | 215 | 206 | 0 | 0 | 0 | clean init phase + late-bound `.so` extensions caught by the type rule |
//! | mysql   | 286 | 250 | 0 | 33 | 1 | the database directory holds configuration data but `/var` is excluded by default |
//!
//! The harness runs the real heuristic over real traces of these models;
//! nothing in the FP/FN columns is hard-coded.

use mirage_env::{
    ApplicationSpec, File, LateTrigger, Machine, MachineBuilder, Package, RunInput, Version,
    VersionReq,
};
use mirage_env::{FileContent, IniDoc, Repository};
use mirage_fingerprint::ResourceKind;
use mirage_heuristic::{evaluate, identify, Classification, EvalResult, HeuristicConfig, RuleSet};
use mirage_trace::{RunId, Trace};

/// A Table 1 application model.
pub struct AppModel {
    /// Application name (the Table 1 row label).
    pub name: &'static str,
    /// The machine hosting the application.
    pub machine: Machine,
    /// The traced workloads.
    pub inputs: Vec<RunInput>,
    /// The vendor rules required for a perfect classification.
    pub rules: RuleSet,
    /// The heuristic configuration.
    pub config: HeuristicConfig,
}

impl AppModel {
    /// Collects the model's traces.
    pub fn traces(&self) -> Vec<Trace> {
        self.inputs
            .iter()
            .enumerate()
            .map(|(i, input)| self.machine.run_app(self.name, input, RunId(i as u64)))
            .collect()
    }

    /// Runs the heuristic, with or without the vendor rules.
    pub fn classify(&self, with_rules: bool) -> Classification {
        let traces = self.traces();
        let manifest = self.machine.pkgs.manifest(self.name);
        let kind_of = |path: &str| self.machine.fs.get(path).map(|f| f.kind);
        let empty = RuleSet::new();
        let rules = if with_rules { &self.rules } else { &empty };
        identify(&traces, manifest, &kind_of, &self.config, rules)
    }

    /// Ground truth for a path.
    pub fn truth(&self, path: &str) -> bool {
        self.machine
            .fs
            .get(path)
            .map(|f| f.truth_env)
            .unwrap_or(false)
    }

    /// Produces the Table 1 row: heuristic-only FP/FN plus the number of
    /// vendor rules needed for a perfect classification.
    pub fn table1_row(&self) -> EvalResult {
        let classification = self.classify(false);
        let truth = |p: &str| self.truth(p);
        evaluate(self.name, &classification, &truth, self.rules.len())
    }

    /// Returns the row after applying the vendor rules (must be perfect).
    pub fn with_rules_row(&self) -> EvalResult {
        let classification = self.classify(true);
        let truth = |p: &str| self.truth(p);
        evaluate(self.name, &classification, &truth, self.rules.len())
    }
}

fn config_file(path: String) -> File {
    File::new(
        path,
        ResourceKind::Config,
        FileContent::Ini(IniDoc::new().section("main").key("id", "x")),
    )
}

/// Builds the PHP model: 215 files, 206 environmental resources,
/// no misclassifications, no rules.
pub(crate) fn php_model() -> AppModel {
    let mut repo = Repository::new();
    let mut pkg = Package::new("php", Version::new(4, 4, 6)).with_file(File::executable(
        "/usr/bin/php",
        "php",
        446,
    ));
    for i in 0..60 {
        pkg = pkg.with_file(File::library(
            format!("/usr/lib/php/libphp-{i}.so"),
            format!("libphp-{i}"),
            "4.4",
            i,
        ));
    }
    repo.publish(pkg);

    let mut spec = ApplicationSpec::new("php", "php", "/usr/bin/php");
    let mut builder = MachineBuilder::new("php-host").install(&repo, "php", VersionReq::Any);
    for i in 0..60 {
        spec = spec.reads(format!("/usr/lib/php/libphp-{i}.so"));
    }
    // 139 configuration files read during initialisation.
    builder = builder.file(config_file("/etc/php/php.ini".into()));
    spec = spec.reads("/etc/php/php.ini");
    for i in 0..138 {
        let path = format!("/etc/php/conf.d/{i:03}.ini");
        builder = builder.file(config_file(path.clone()));
        spec = spec.reads(path);
    }
    // Six late-bound extensions, each loaded by exactly one workload —
    // only the vendor-type rule (shared libraries) can catch them.
    for i in 0..6 {
        let path = format!("/usr/lib/php/ext/ext-{i}.so");
        builder = builder.file(File::library(
            path.clone(),
            format!("ext-{i}"),
            "4.4",
            100 + i,
        ));
        spec = spec.late(path, LateTrigger::OnInput(format!("ext{i}")));
    }
    // Nine scripts (data), three per workload.
    for i in 0..9 {
        builder = builder.file(File::new(
            format!("/srv/scripts/s{i}.php"),
            ResourceKind::Text,
            FileContent::Text(vec![format!("<?php echo {i}; ?>")]),
        ));
    }
    let machine = builder.app(spec).build();
    let inputs = (0..3)
        .map(|w| {
            let mut input = RunInput::new(format!("workload-{w}"));
            for s in 0..3 {
                input = input.data(format!("/srv/scripts/s{}.php", w * 3 + s));
            }
            input
                .tag(format!("ext{}", w * 2))
                .tag(format!("ext{}", w * 2 + 1))
        })
        .collect();
    AppModel {
        name: "php",
        machine,
        inputs,
        rules: RuleSet::new(),
        config: HeuristicConfig::paper_default(),
    }
}

/// Builds the Apache model: 400 files, 251 environmental resources,
/// 133 false positives (access log + popular HTML), 2 rules.
pub(crate) fn apache_model() -> AppModel {
    let mut repo = Repository::new();
    let mut pkg = Package::new("apache", Version::new(1, 3, 26)).with_file(File::executable(
        "/usr/sbin/httpd",
        "httpd",
        1326,
    ));
    for i in 0..80 {
        pkg = pkg.with_file(File::library(
            format!("/usr/lib/apache/mod_{i}.so"),
            format!("mod_{i}"),
            "1.3",
            i,
        ));
    }
    repo.publish(pkg);

    let mut spec = ApplicationSpec::new("apache", "apache", "/usr/sbin/httpd");
    let mut builder = MachineBuilder::new("apache-host").install(&repo, "apache", VersionReq::Any);
    for i in 0..80 {
        spec = spec.reads(format!("/usr/lib/apache/mod_{i}.so"));
    }
    for i in 0..170 {
        let path = format!("/etc/apache/conf/{i:03}.conf");
        builder = builder.file(config_file(path.clone()));
        spec = spec.reads(path);
    }
    // The access log is touched during initialisation (false positive 1).
    builder = builder.file(File::log("/srv/logs/access.log", vec!["-".into()]));
    spec = spec.reads("/srv/logs/access.log");
    // 132 popular pages served in every run (false positives 2..133) and
    // 16 unpopular pages each served in exactly one run.
    for i in 0..132 {
        builder = builder.file(File::html(
            format!("/srv/www/htdocs/popular{i:03}.html"),
            format!("page {i}"),
        ));
    }
    for i in 0..16 {
        builder = builder.file(File::html(
            format!("/srv/www/htdocs/rare{i:02}.html"),
            format!("rare {i}"),
        ));
    }
    let machine = builder.app(spec).build();
    let inputs = (0..4)
        .map(|w| {
            let mut input = RunInput::new(format!("traffic-{w}"));
            // A unique page first, so the initialisation LCP ends before
            // the popular set.
            for r in 0..4 {
                input = input.data(format!("/srv/www/htdocs/rare{:02}.html", w * 4 + r));
            }
            for i in 0..132 {
                input = input.data(format!("/srv/www/htdocs/popular{i:03}.html"));
            }
            input
        })
        .collect();
    AppModel {
        name: "apache",
        machine,
        inputs,
        rules: RuleSet::new()
            .exclude("/srv/www/htdocs/**")
            .exclude("/srv/logs/**"),
        config: HeuristicConfig::paper_default(),
    }
}

/// Builds the MySQL model: 286 files, 250 environmental resources,
/// 33 false negatives (the database directory), 1 rule.
pub(crate) fn mysql_model() -> AppModel {
    let mut repo = Repository::new();
    let mut pkg = Package::new("mysql", Version::new(4, 1, 22)).with_file(File::executable(
        "/usr/sbin/mysqld",
        "mysqld",
        4122,
    ));
    for i in 0..40 {
        pkg = pkg.with_file(File::library(
            format!("/usr/lib/mysql/lib{i}.so"),
            format!("lib{i}"),
            "4.1",
            i,
        ));
    }
    repo.publish(pkg);

    let mut spec = ApplicationSpec::new("mysql", "mysql", "/usr/sbin/mysqld");
    let mut builder = MachineBuilder::new("mysql-host").install(&repo, "mysql", VersionReq::Any);
    for i in 0..40 {
        spec = spec.reads(format!("/usr/lib/mysql/lib{i}.so"));
    }
    for i in 0..176 {
        let path = format!("/etc/mysql/conf.d/{i:03}.cnf");
        builder = builder.file(config_file(path.clone()));
        spec = spec.reads(path);
    }
    // The 33 system tables: read at startup, genuinely environmental
    // (they carry grant/config data), but under /var.
    for i in 0..33 {
        let path = format!("/var/lib/mysql/mysql/sys{i:02}.frm");
        builder = builder.file(File::data(path.clone(), i as u64, 256).env_resource());
        spec = spec.reads(path);
    }
    // 36 user-database files, write-accessed, varying per run.
    for i in 0..36 {
        builder = builder.file(File::data(
            format!("/var/lib/mysql/userdb/t{i:02}.ibd"),
            100 + i as u64,
            256,
        ));
    }
    spec.logic.writes_data = true;
    let machine = builder.app(spec).build();
    let inputs = (0..3)
        .map(|w| {
            let mut input = RunInput::new(format!("queries-{w}"));
            for t in 0..12 {
                input = input.data(format!("/var/lib/mysql/userdb/t{:02}.ibd", w * 12 + t));
            }
            input
        })
        .collect();
    AppModel {
        name: "mysql",
        machine,
        inputs,
        rules: RuleSet::new().include("/var/lib/mysql/mysql/**"),
        config: HeuristicConfig::paper_default(),
    }
}

/// Builds the Firefox model: 907 files, 839 environmental resources,
/// 1 false positive, 23 false negatives, 7 rules.
pub(crate) fn firefox_model() -> AppModel {
    let mut repo = Repository::new();
    let mut pkg = Package::new("firefox", Version::new(1, 5, 7)).with_file(File::executable(
        "/usr/bin/firefox",
        "firefox",
        1507,
    ));
    for i in 0..120 {
        pkg = pkg.with_file(File::library(
            format!("/usr/lib/firefox/lib{i}.so"),
            format!("lib{i}"),
            "1.5",
            i,
        ));
    }
    repo.publish(pkg);

    let mut spec = ApplicationSpec::new("firefox", "firefox", "/usr/bin/firefox");
    let mut builder =
        MachineBuilder::new("firefox-host").install(&repo, "firefox", VersionReq::Any);
    for i in 0..120 {
        spec = spec.reads(format!("/usr/lib/firefox/lib{i}.so"));
    }
    for i in 0..695 {
        let path = format!("/usr/lib/firefox/chrome/{i:03}.manifest");
        builder = builder.file(config_file(path.clone()));
        spec = spec.reads(path);
    }
    // The session log is replayed at startup: the one false positive.
    builder = builder.file(File::log(
        "/home/user/.mozilla/session.log",
        vec!["last-session".into()],
    ));
    spec = spec.reads("/home/user/.mozilla/session.log");
    // 23 on-demand resources the heuristic misses: extensions, themes,
    // fonts, split over system and per-user directories (hence 6 include
    // rules) — each loaded by exactly one workload.
    let late_paths: Vec<(String, ResourceKind)> = (0..5)
        .map(|i| {
            (
                format!("/usr/lib/firefox/extensions/e{i}.xpi"),
                ResourceKind::Extension,
            )
        })
        .chain((0..5).map(|i| {
            (
                format!("/home/user/.mozilla/extensions/u{i}.xpi"),
                ResourceKind::Extension,
            )
        }))
        .chain((0..3).map(|i| {
            (
                format!("/usr/lib/firefox/themes/t{i}.jar"),
                ResourceKind::Theme,
            )
        }))
        .chain((0..3).map(|i| {
            (
                format!("/home/user/.mozilla/themes/v{i}.jar"),
                ResourceKind::Theme,
            )
        }))
        .chain((0..4).map(|i| (format!("/usr/share/fonts/f{i}.ttf"), ResourceKind::Font)))
        .chain((0..3).map(|i| (format!("/home/user/.fonts/g{i}.ttf"), ResourceKind::Font)))
        .collect();
    for (i, (path, kind)) in late_paths.iter().enumerate() {
        builder = builder.file(File::new(
            path.clone(),
            *kind,
            FileContent::Binary {
                seed: i as u64,
                len: 128,
            },
        ));
        spec = spec.late(path.clone(), LateTrigger::OnInput(format!("late{i}")));
    }
    // 67 cache files, each touched by exactly one workload.
    for i in 0..67 {
        builder = builder.file(File::data(
            format!("/home/user/.mozilla/cache/c{i:02}"),
            500 + i as u64,
            64,
        ));
    }
    let machine = builder.app(spec).build();
    // Four workloads covering the 23 late resources (6+6+6+5) and the 67
    // cache files (17+17+17+16).
    let inputs = (0..4usize)
        .map(|w| {
            let mut input = RunInput::new(format!("browse-{w}"));
            for l in (0..23).filter(|l| l % 4 == w) {
                input = input.tag(format!("late{l}"));
            }
            for c in (0..67).filter(|c| c % 4 == w) {
                input = input.data(format!("/home/user/.mozilla/cache/c{c:02}"));
            }
            input
        })
        .collect();
    AppModel {
        name: "firefox",
        machine,
        inputs,
        rules: RuleSet::new()
            .exclude("/home/user/.mozilla/session.log")
            .include("/usr/lib/firefox/extensions/*.xpi")
            .include("/home/user/.mozilla/extensions/*.xpi")
            .include("/usr/lib/firefox/themes/*.jar")
            .include("/home/user/.mozilla/themes/*.jar")
            .include("/usr/share/fonts/*.ttf")
            .include("/home/user/.fonts/*.ttf"),
        config: HeuristicConfig::paper_default(),
    }
}

/// All four Table 1 models in the paper's row order.
pub fn all_models() -> Vec<AppModel> {
    vec![firefox_model(), apache_model(), php_model(), mysql_model()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_row(model: &AppModel, files: usize, env: usize, fp: usize, fn_: usize, rules: usize) {
        let row = model.table1_row();
        assert_eq!(row.files_total, files, "{}: files total", model.name);
        assert_eq!(row.env_resources, env, "{}: env resources", model.name);
        assert_eq!(row.false_positives, fp, "{}: false positives", model.name);
        assert_eq!(row.false_negatives, fn_, "{}: false negatives", model.name);
        assert_eq!(row.vendor_rules, rules, "{}: rules", model.name);
        let fixed = model.with_rules_row();
        assert!(
            fixed.is_perfect(),
            "{}: rules must yield a perfect classification, got FP={} FN={}",
            model.name,
            fixed.false_positives,
            fixed.false_negatives
        );
    }

    #[test]
    fn php_row_matches_table1() {
        assert_row(&php_model(), 215, 206, 0, 0, 0);
    }

    #[test]
    fn apache_row_matches_table1() {
        assert_row(&apache_model(), 400, 251, 133, 0, 2);
    }

    #[test]
    fn mysql_row_matches_table1() {
        assert_row(&mysql_model(), 286, 250, 0, 33, 1);
    }

    #[test]
    fn firefox_row_matches_table1() {
        assert_row(&firefox_model(), 907, 839, 1, 23, 7);
    }

    #[test]
    fn all_models_cover_table1() {
        let names: Vec<&str> = all_models().iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["firefox", "apache", "php", "mysql"]);
    }
}
