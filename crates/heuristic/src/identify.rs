//! The four-part identification algorithm.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use mirage_fingerprint::ResourceKind;
use mirage_trace::{OpenMode, SyscallEvent, Trace};

use crate::config::HeuristicConfig;
use crate::rules::RuleSet;

/// Why a path was classified as an environmental resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Provenance {
    /// Accessed during the initialisation phase (longest common prefix).
    InitPhase,
    /// Opened read-only in every trace.
    ReadOnlyAllTraces,
    /// Of a vendor-specified environmental type.
    VendorType,
    /// Named in the application's package manifest.
    PackageManifest,
    /// Forced in by a vendor include rule.
    VendorInclude,
}

/// The result of identifying an application's environmental resources.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Classification {
    /// Environmental resource paths.
    pub env_resources: BTreeSet<String>,
    /// Environment variables read by the application.
    pub env_vars: BTreeSet<String>,
    /// First-match provenance for each classified path.
    pub provenance: BTreeMap<String, Provenance>,
    /// Every path seen in any trace or the manifest (the candidate
    /// universe; the paper's "Files total" counts the traced subset).
    pub universe: BTreeSet<String>,
    /// Paths accessed in at least one trace.
    pub accessed: BTreeSet<String>,
}

impl Classification {
    /// Returns `true` if `path` was classified as environmental.
    pub fn is_env(&self, path: &str) -> bool {
        self.env_resources.contains(path)
    }
}

/// Runs the full heuristic.
///
/// * `traces` — the collected runs of the application on this machine;
/// * `manifest` — paths named in the application's package;
/// * `kind_of` — kind lookup for a path (from the machine's filesystem);
/// * `config` — default excludes and vendor-specified env types;
/// * `rules` — the vendor's include/exclude directives.
///
/// Traces and manifest are only read: each trace is walked once, every
/// decision is made on `&str` keys borrowed from it, and `String`s are
/// made once, for the collections the [`Classification`] returns.
pub fn identify<'a>(
    traces: impl IntoIterator<Item = &'a Trace>,
    manifest: impl IntoIterator<Item = &'a str>,
    kind_of: &dyn Fn(&str) -> Option<ResourceKind>,
    config: &HeuristicConfig,
    rules: &RuleSet,
) -> Classification {
    let mut accessed: BTreeSet<&str> = BTreeSet::new();
    let mut env_vars: BTreeSet<&str> = BTreeSet::new();
    // Longest common prefix of the first-access sequences, and the paths
    // opened read-only in every trace; `None` until the first trace.
    let mut init_phase: Option<Vec<&str>> = None;
    let mut read_only: Option<BTreeSet<&str>> = None;

    for trace in traces {
        // Paths this trace opened, read or wrote, with the effective mode
        // of those it opened. A `Read` joins the access sequence but
        // opens nothing; a `Close` does neither.
        let mut touched: BTreeMap<&str, Option<OpenMode>> = BTreeMap::new();
        let mut sequence: Vec<&str> = Vec::new();
        for event in &trace.events {
            if let SyscallEvent::GetEnv { name, .. } = event {
                env_vars.insert(name);
            }
            let Some(path) = event.path() else { continue };
            accessed.insert(path);
            if matches!(event, SyscallEvent::Close { .. }) {
                continue;
            }
            let opened = event.opens().map(|(_, mode)| mode);
            match touched.entry(path) {
                Entry::Vacant(slot) => {
                    slot.insert(opened);
                    sequence.push(path);
                }
                Entry::Occupied(mut slot) => {
                    if let Some(mode) = opened {
                        let merged = slot.get().map_or(mode, |m| m.merged(mode));
                        slot.insert(Some(merged));
                    }
                }
            }
        }
        let is_read_only = |path: &str| matches!(touched.get(path), Some(Some(m)) if !m.writes());
        read_only = Some(match read_only {
            Some(mut everywhere) => {
                everywhere.retain(|p| is_read_only(p));
                everywhere
            }
            None => touched
                .keys()
                .copied()
                .filter(|p| is_read_only(p))
                .collect(),
        });
        init_phase = Some(match init_phase {
            Some(mut prefix) => {
                let common = prefix
                    .iter()
                    .zip(&sequence)
                    .take_while(|(a, b)| a == b)
                    .count();
                prefix.truncate(common);
                prefix
            }
            None => sequence,
        });
    }

    let manifest: Vec<&str> = manifest.into_iter().collect();
    let mut universe = accessed.clone();
    universe.extend(&manifest);

    // The first part to name a path is its provenance.
    let mut provenance: BTreeMap<&str, Provenance> = BTreeMap::new();
    // Part 1: initialisation phase.
    for p in init_phase.into_iter().flatten() {
        provenance.entry(p).or_insert(Provenance::InitPhase);
    }
    // Part 2: read-only in all traces.
    for p in read_only.into_iter().flatten() {
        provenance.entry(p).or_insert(Provenance::ReadOnlyAllTraces);
    }
    // Part 3: vendor-specified types accessed in any trace.
    for &p in &accessed {
        if kind_of(p).is_some_and(|kind| config.env_types.contains(&kind)) {
            provenance.entry(p).or_insert(Provenance::VendorType);
        }
    }
    // Part 4: package manifest.
    for &p in &manifest {
        provenance.entry(p).or_insert(Provenance::PackageManifest);
    }

    // Default system-wide excludes, then vendor rules. Vendor includes
    // win over every exclusion; vendor excludes win over the heuristic.
    let mut env_resources: BTreeSet<&str> = provenance
        .keys()
        .copied()
        .filter(|p| !config.default_excluded(p) && (!rules.excludes(p) || rules.includes(p)))
        .collect();
    for &p in &universe {
        if rules.includes(p) && env_resources.insert(p) {
            // The heuristic alone did not keep this path (it was missing
            // or suppressed), so the include rule is its real provenance.
            provenance.insert(p, Provenance::VendorInclude);
        }
    }
    provenance.retain(|p, _| env_resources.contains(p));

    let owned = |set: BTreeSet<&str>| set.into_iter().map(str::to_owned).collect();
    Classification {
        env_resources: owned(env_resources),
        env_vars: owned(env_vars),
        provenance: provenance
            .into_iter()
            .map(|(p, why)| (p.to_owned(), why))
            .collect(),
        universe: owned(universe),
        accessed: owned(accessed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_trace::RunId;

    /// Part 1 as the paper states it: the paths within the longest common
    /// prefix of the per-trace access sequences. With a single trace the
    /// whole sequence is the prefix, which matches the paper's observation
    /// that more traces sharpen the boundary of the initialisation phase.
    fn init_phase_paths(traces: &[Trace]) -> BTreeSet<String> {
        let mut iter = traces.iter().map(Trace::access_sequence);
        let Some(mut prefix) = iter.next() else {
            return BTreeSet::new();
        };
        for seq in iter {
            let common = prefix
                .iter()
                .zip(seq.iter())
                .take_while(|(a, b)| a == b)
                .count();
            prefix.truncate(common);
        }
        prefix.into_iter().map(str::to_owned).collect()
    }

    /// Part 2: paths opened read-only in every trace (and present in all).
    fn read_only_everywhere(traces: &[Trace]) -> BTreeSet<String> {
        let mut iter = traces.iter();
        let Some(first) = iter.next() else {
            return BTreeSet::new();
        };
        let mut result = first.read_only_paths();
        for t in iter {
            let ro = t.read_only_paths();
            result.retain(|p| ro.contains(p));
        }
        result.into_iter().map(str::to_owned).collect()
    }

    /// The heuristic part by part over owned sets, one `Trace` helper per
    /// part: the oracle [`identify`] is checked against.
    fn identify_reference(
        traces: &[Trace],
        manifest: &BTreeSet<String>,
        kind_of: &dyn Fn(&str) -> Option<ResourceKind>,
        config: &HeuristicConfig,
        rules: &RuleSet,
    ) -> Classification {
        let mut accessed: BTreeSet<String> = BTreeSet::new();
        let mut env_vars: BTreeSet<String> = BTreeSet::new();
        for t in traces {
            accessed.extend(t.accessed_paths().into_iter().map(str::to_owned));
            env_vars.extend(t.env_vars_read().into_iter().map(str::to_owned));
        }
        let mut universe = accessed.clone();
        universe.extend(manifest.iter().cloned());

        let mut provenance: BTreeMap<String, Provenance> = BTreeMap::new();
        let note = |path: &str, why: Provenance, out: &mut BTreeMap<String, Provenance>| {
            out.entry(path.to_string()).or_insert(why);
        };
        for p in init_phase_paths(traces) {
            note(&p, Provenance::InitPhase, &mut provenance);
        }
        for p in read_only_everywhere(traces) {
            note(&p, Provenance::ReadOnlyAllTraces, &mut provenance);
        }
        for p in &accessed {
            if let Some(kind) = kind_of(p) {
                if config.env_types.contains(&kind) {
                    note(p, Provenance::VendorType, &mut provenance);
                }
            }
        }
        for p in manifest {
            note(p, Provenance::PackageManifest, &mut provenance);
        }

        let mut env_resources: BTreeSet<String> = provenance
            .keys()
            .filter(|p| !config.default_excluded(p))
            .cloned()
            .collect();
        env_resources.retain(|p| !rules.excludes(p) || rules.includes(p));
        for p in &universe {
            if rules.includes(p) && env_resources.insert(p.clone()) {
                provenance.insert(p.clone(), Provenance::VendorInclude);
            }
        }
        provenance.retain(|p, _| env_resources.contains(p));

        Classification {
            env_resources,
            env_vars,
            provenance,
            universe,
            accessed,
        }
    }

    fn trace(machine: &str, events: Vec<SyscallEvent>) -> Trace {
        let mut t = Trace::new(machine, "app", RunId(0));
        for e in events {
            t.push(e);
        }
        t
    }

    fn open(path: &str, mode: OpenMode) -> SyscallEvent {
        SyscallEvent::Open {
            path: path.into(),
            mode,
        }
    }

    fn ro(path: &str) -> SyscallEvent {
        open(path, OpenMode::ReadOnly)
    }

    fn proc(exe: &str) -> SyscallEvent {
        SyscallEvent::ProcessCreate {
            exe: exe.into(),
            args: vec![],
        }
    }

    /// Two runs: identical init (exe, lib, cfg), divergent data reads, a
    /// log written in both.
    fn sample_traces() -> Vec<Trace> {
        let t1 = trace(
            "m",
            vec![
                proc("/bin/app"),
                ro("/lib/libx.so"),
                ro("/etc/app.conf"),
                ro("/data/a.txt"),
                SyscallEvent::Write {
                    path: "/logs/app.log".into(),
                    data: vec![1],
                },
            ],
        );
        let t2 = trace(
            "m",
            vec![
                proc("/bin/app"),
                ro("/lib/libx.so"),
                ro("/etc/app.conf"),
                ro("/data/b.txt"),
                ro("/late/plugin.so"),
                SyscallEvent::Write {
                    path: "/logs/app.log".into(),
                    data: vec![2],
                },
            ],
        );
        vec![t1, t2]
    }

    #[test]
    fn lcp_finds_init_phase() {
        let init = init_phase_paths(&sample_traces());
        assert!(init.contains("/bin/app"));
        assert!(init.contains("/lib/libx.so"));
        assert!(init.contains("/etc/app.conf"));
        assert!(!init.contains("/data/a.txt"), "diverging tail excluded");
        assert!(init_phase_paths(&[]).is_empty());
    }

    #[test]
    fn lcp_single_trace_is_whole_sequence() {
        let traces = vec![sample_traces().remove(0)];
        let init = init_phase_paths(&traces);
        assert!(init.contains("/data/a.txt"));
        assert!(init.contains("/logs/app.log"));
    }

    #[test]
    fn read_only_everywhere_excludes_divergent_and_written() {
        let ro_paths = read_only_everywhere(&sample_traces());
        assert!(ro_paths.contains("/lib/libx.so"));
        assert!(ro_paths.contains("/etc/app.conf"));
        assert!(!ro_paths.contains("/data/a.txt"), "only in one trace");
        assert!(!ro_paths.contains("/logs/app.log"), "written");
        assert!(read_only_everywhere(&[]).is_empty());
    }

    fn kinds(path: &str) -> Option<ResourceKind> {
        if path.ends_with(".so") {
            Some(ResourceKind::SharedLibrary)
        } else if path.starts_with("/etc") {
            Some(ResourceKind::Config)
        } else {
            Some(ResourceKind::Data)
        }
    }

    #[test]
    fn full_heuristic_combines_parts() {
        let c = identify(
            &sample_traces(),
            ["/bin/app", "/share/app/builtin.dat"],
            &kinds,
            &HeuristicConfig::paper_default(),
            &RuleSet::new(),
        );
        // Init phase.
        assert_eq!(c.provenance["/bin/app"], Provenance::InitPhase);
        assert!(c.is_env("/etc/app.conf"));
        // Late-loaded library caught by the type rule.
        assert_eq!(c.provenance["/late/plugin.so"], Provenance::VendorType);
        // Manifest file never accessed still included.
        assert_eq!(
            c.provenance["/share/app/builtin.dat"],
            Provenance::PackageManifest
        );
        // Data and logs excluded.
        assert!(!c.is_env("/data/a.txt"));
        assert!(!c.is_env("/logs/app.log"));
        // Universe covers manifest + accessed.
        assert!(c.universe.contains("/share/app/builtin.dat"));
        assert!(c.accessed.contains("/data/a.txt"));
        assert!(!c.accessed.contains("/share/app/builtin.dat"));
    }

    #[test]
    fn default_excludes_suppress_var_and_tmp() {
        let t = trace(
            "m",
            vec![proc("/bin/app"), ro("/var/lib/app/state.db"), ro("/tmp/x")],
        );
        let c = identify(
            &[t],
            [],
            &kinds,
            &HeuristicConfig::paper_default(),
            &RuleSet::new(),
        );
        assert!(!c.is_env("/var/lib/app/state.db"));
        assert!(!c.is_env("/tmp/x"));
        assert!(c.is_env("/bin/app"));
    }

    #[test]
    fn vendor_include_overrides_default_exclude() {
        let t = trace("m", vec![proc("/bin/app"), ro("/var/lib/app/state.db")]);
        let c = identify(
            &[t],
            [],
            &kinds,
            &HeuristicConfig::paper_default(),
            &RuleSet::new().include("/var/lib/app/**"),
        );
        assert!(c.is_env("/var/lib/app/state.db"));
        assert_eq!(
            c.provenance["/var/lib/app/state.db"],
            Provenance::VendorInclude
        );
    }

    #[test]
    fn vendor_exclude_overrides_heuristic() {
        let t = trace("m", vec![proc("/bin/app"), ro("/srv/www/index.html")]);
        let c = identify(
            &[t],
            [],
            &kinds,
            &HeuristicConfig::paper_default(),
            &RuleSet::new().exclude("/srv/www/**"),
        );
        assert!(!c.is_env("/srv/www/index.html"));
        assert!(!c.provenance.contains_key("/srv/www/index.html"));
    }

    #[test]
    fn include_beats_exclude_on_overlap() {
        let t = trace("m", vec![ro("/srv/www/special.conf")]);
        let c = identify(
            &[t],
            [],
            &kinds,
            &HeuristicConfig::paper_default(),
            &RuleSet::new()
                .exclude("/srv/www/**")
                .include("/srv/www/special.conf"),
        );
        assert!(c.is_env("/srv/www/special.conf"));
    }

    #[test]
    fn env_vars_collected() {
        let mut t = trace("m", vec![proc("/bin/app")]);
        t.push(SyscallEvent::GetEnv {
            name: "HOME".into(),
            value: None,
        });
        let c = identify(
            &[t],
            [],
            &kinds,
            &HeuristicConfig::paper_default(),
            &RuleSet::new(),
        );
        assert!(c.env_vars.contains("HOME"));
    }

    /// Deterministic xorshift64 generator for the property below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
            pool[self.below(pool.len())]
        }
    }

    /// Paths chosen so that every part of the heuristic, both default
    /// excludes and every rule below has something to bite on.
    const PATHS: [&str; 14] = [
        "/bin/app",
        "/bin/helper",
        "/lib/liba.so",
        "/lib/libb.so",
        "/etc/a.conf",
        "/etc/b.conf",
        "/data/x",
        "/data/y",
        "/var/lib/state.db",
        "/var/log/app.log",
        "/tmp/scratch",
        "/srv/www/index.html",
        "/srv/www/special.conf",
        "/opt/plugin.so",
    ];
    const MANIFEST_ONLY: [&str; 2] = ["/share/app/builtin.dat", "/var/lib/app/pkg.db"];
    /// Includes and excludes that fight each other and the defaults.
    const RULES: [(bool, &str); 7] = [
        (true, "/var/lib/**"),
        (false, "/srv/www/**"),
        (true, "/srv/www/special.conf"),
        (false, "/etc/**"),
        (true, "/tmp/*"),
        (false, "**/*.so"),
        (true, "/etc/a.conf"),
    ];

    fn random_event(rng: &mut Rng) -> SyscallEvent {
        let path = rng.pick(&PATHS).to_string();
        match rng.below(12) {
            0..=2 => SyscallEvent::Open {
                path,
                mode: [OpenMode::ReadOnly, OpenMode::WriteOnly, OpenMode::ReadWrite][rng.below(3)],
            },
            3 => ro(&path),
            4 => SyscallEvent::Read { path, len: 1 },
            5 => SyscallEvent::Write {
                path,
                data: vec![0],
            },
            6 | 7 => SyscallEvent::Close { path },
            8 => proc(&path),
            9 => SyscallEvent::Exec { exe: path },
            10 => SyscallEvent::GetEnv {
                name: ["HOME", "TZ", "LANG"][rng.below(3)].into(),
                value: None,
            },
            _ => SyscallEvent::NetSend {
                peer: "client:1".into(),
                data: vec![1],
            },
        }
    }

    /// The shapes the property is meant to cover that one generated case
    /// exhibits, so the test can say each of them actually occurred.
    fn shapes_of(
        traces: &[Trace],
        manifest: &BTreeSet<String>,
        c: &Classification,
    ) -> Vec<&'static str> {
        let sequences: Vec<Vec<&str>> = traces.iter().map(Trace::access_sequence).collect();
        let modes: Vec<_> = traces.iter().map(Trace::open_modes).collect();
        let events = || traces.iter().flat_map(|t| &t.events);
        // An earlier and a later open of one path in one trace.
        let reopened = |first: OpenMode, later_writes: bool| {
            traces.iter().any(|t| {
                t.events.iter().enumerate().any(|(i, e)| {
                    e.opens().is_some_and(|(path, mode)| {
                        mode == first
                            && t.events[i + 1..].iter().any(|e| {
                                e.opens()
                                    .is_some_and(|(p, m)| p == path && m.writes() == later_writes)
                            })
                    })
                })
            })
        };
        let executed = |p: &str| {
            events().any(|e| {
                !matches!(e, SyscallEvent::Open { .. })
                    && e.opens() == Some((p, OpenMode::ReadOnly))
            })
        };
        let overlaps = manifest.iter().any(|p| c.accessed.contains(p));
        [
            (
                "a path only closed",
                c.accessed
                    .iter()
                    .any(|p| !sequences.iter().any(|s| s.contains(&p.as_str()))),
            ),
            (
                "read in one trace, written in another",
                PATHS.iter().any(|p| {
                    modes.iter().any(|m| m.get(p).is_some_and(|m| !m.writes()))
                        && modes.iter().any(|m| m.get(p).is_some_and(|m| m.writes()))
                }),
            ),
            (
                "write then read in one trace",
                reopened(OpenMode::WriteOnly, false),
            ),
            (
                "read then write in one trace",
                reopened(OpenMode::ReadOnly, true),
            ),
            (
                "an executed image read-only everywhere",
                read_only_everywhere(traces).iter().any(|p| executed(p)),
            ),
            (
                "diverging prefixes",
                sequences.windows(2).any(|w| w[0].first() != w[1].first()),
            ),
            (
                "an include beating a default exclude",
                c.env_resources
                    .iter()
                    .any(|p| p.starts_with("/var/") || p.starts_with("/tmp/")),
            ),
            ("a manifest overlapping the traces", overlaps),
            (
                "a manifest disjoint from the traces",
                !manifest.is_empty() && !overlaps,
            ),
        ]
        .into_iter()
        .filter_map(|(shape, seen)| seen.then_some(shape))
        .collect()
    }

    /// The single-pass, borrowed [`identify`] returns exactly what the
    /// part-by-part reference returns, on all five fields.
    #[test]
    fn identify_matches_the_reference_on_random_traces() {
        let mut rng = Rng(0x5eed_1de7);
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for case in 0..600 {
            // 0, 1 or 2–5 traces; most share a generated initialisation
            // phase and then diverge.
            let runs = match case % 4 {
                0 => 0,
                1 => 1,
                _ => 2 + rng.below(4),
            };
            let init: Vec<SyscallEvent> =
                (0..rng.below(5)).map(|_| random_event(&mut rng)).collect();
            let traces: Vec<Trace> = (0..runs)
                .map(|_| {
                    let mut events = if rng.below(5) == 0 {
                        Vec::new()
                    } else {
                        init.clone()
                    };
                    events.extend((0..rng.below(10)).map(|_| random_event(&mut rng)));
                    trace("m", events)
                })
                .collect();
            let manifest: BTreeSet<String> = PATHS
                .iter()
                .chain(&MANIFEST_ONLY)
                .filter(|_| rng.below(5) == 0)
                .map(|p| p.to_string())
                .collect();
            let rules = RULES.iter().filter(|_| rng.below(3) == 0).fold(
                RuleSet::new(),
                |rules, &(include, glob)| {
                    if include {
                        rules.include(glob)
                    } else {
                        rules.exclude(glob)
                    }
                },
            );
            let config = if rng.below(3) == 0 {
                HeuristicConfig::paper_default().with_env_type(ResourceKind::Config)
            } else {
                HeuristicConfig::paper_default()
            };
            // Some paths are not on the machine at all.
            let kind_of = |path: &str| (path != "/data/y").then(|| kinds(path)).flatten();

            let expected = identify_reference(&traces, &manifest, &kind_of, &config, &rules);
            let got = identify(
                &traces,
                manifest.iter().map(String::as_str),
                &kind_of,
                &config,
                &rules,
            );
            assert_eq!(
                got, expected,
                "case {case}: {traces:#?} {manifest:?} {rules:?}"
            );
            for shape in shapes_of(&traces, &manifest, &expected) {
                *seen.entry(shape).or_default() += 1;
            }
        }
        assert_eq!(seen.len(), 9, "a shape never occurred: {seen:?}");
        assert!(
            seen.values().all(|&cases| cases >= 10),
            "a shape occurred in under 10 cases: {seen:?}"
        );
    }
}
