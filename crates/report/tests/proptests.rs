//! Randomised tests of the report crate: the sharded repository must be
//! observationally identical to the retained string-keyed reference on
//! random report streams, and the hand-rolled JSON codec must
//! round-trip hostile strings and numeric edge cases.
//!
//! Streams are generated with a seeded xorshift generator, so every run
//! exercises the same cases deterministically and offline.

use mirage_report::{reference, Report, ReportImage, ReportOutcome, Urr};

/// Deterministic xorshift64 generator for report streams.
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

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Signature pool with deliberately hostile names: shard-hash
/// collisions aside, these exercise escaping, unicode, and
/// empty-string handling end to end.
const SIGNATURES: &[&str] = &[
    "php/crash",
    "mycnf/overwritten",
    "firefox/prefs",
    "ssh/\"quoted\"",
    "esc\\backslash\nnewline\ttab",
    "unicode/日本語-🦀",
    "",
    "control/\u{0001}\u{001f}",
];

const PACKAGES: &[(&str, &str)] = &[
    ("mysql", "5.0.27"),
    ("mysql", "5.0.28"),
    ("firefox", "2.0.0"),
    ("upgrade", "r1"),
];

fn random_report(rng: &mut Rng, machines: usize, clusters: usize) -> Report {
    let machine = format!("m{}", rng.below(machines));
    let cluster = rng.below(clusters);
    let (package, version) = PACKAGES[rng.below(PACKAGES.len())];
    if rng.chance(55) {
        Report::success(machine, cluster, package, version)
    } else {
        let sig = SIGNATURES[rng.below(SIGNATURES.len())];
        let image = if rng.chance(70) {
            ReportImage::new(
                format!("digest-{:x}", rng.next()),
                vec![format!("ctx{}", rng.below(9))],
                vec!["input \"x\"".into()],
                vec!["out\\y".into()],
            )
        } else {
            ReportImage::default()
        };
        Report::failure(
            machine,
            cluster,
            package,
            version,
            sig,
            "detail: \u{7}",
            image,
        )
    }
}

/// The seeded equivalence property required by the reference-plane
/// convention: for random report streams, the sharded [`Urr`] and the
/// string-keyed [`reference::Urr`] produce identical stats, failure
/// groups, release summaries, discovery profiles, snapshots, and
/// filtered queries — at several shard counts, and for both the
/// one-at-a-time and batched ingest paths.
#[test]
fn urr_reference_equivalence() {
    let mut rng = Rng::new(0x5eed_0005);
    for case in 0..24 {
        let machines = 2 + rng.below(20);
        let clusters = 1 + rng.below(6);
        let len = rng.below(120);
        let stream: Vec<Report> = (0..len)
            .map(|_| random_report(&mut rng, machines, clusters))
            .collect();

        let refr = reference::Urr::new();
        for r in stream.iter().cloned() {
            refr.deposit(r);
        }

        let shard_count = 1usize << (case % 4); // 1, 2, 4, 8
        let urr = Urr::with_shards(shard_count);
        if case % 2 == 0 {
            for r in stream.iter().cloned() {
                urr.deposit(r);
            }
        } else {
            urr.deposit_batch(stream.clone());
        }

        assert_eq!(urr.stats(), refr.stats(), "case {case}: stats");
        assert_eq!(
            urr.failure_groups(),
            refr.failure_groups(),
            "case {case}: failure groups ({shard_count} shards)"
        );
        assert_eq!(
            urr.release_summaries(),
            refr.release_summaries(),
            "case {case}: release summaries"
        );
        assert_eq!(
            urr.discovery_profile(),
            refr.discovery_profile(),
            "case {case}: discovery profile"
        );
        assert_eq!(urr.all(), refr.all(), "case {case}: deposit-order snapshot");
        for (package, version) in PACKAGES {
            assert_eq!(
                urr.for_version(package, version),
                refr.for_version(package, version),
                "case {case}: for_version {package} {version}"
            );
        }
        for cluster in 0..clusters {
            assert_eq!(
                urr.for_cluster(cluster),
                refr.for_cluster(cluster),
                "case {case}: for_cluster {cluster}"
            );
        }

        // Drill-downs agree with the reference's grouped view.
        let ref_groups = refr.failure_groups();
        for g in &ref_groups {
            assert_eq!(
                urr.machines_for_signature(&g.signature).as_ref(),
                Some(&g.machines),
                "case {case}: machine drill-down for {:?}",
                g.signature
            );
            assert_eq!(
                urr.clusters_for_signature(&g.signature).as_ref(),
                Some(&g.clusters),
                "case {case}: cluster drill-down for {:?}",
                g.signature
            );
        }

        // Top-k with k = ∞ is the full group list re-ranked by
        // (count desc, discovery asc).
        let mut ranked = ref_groups.clone();
        ranked.sort_by(|a, b| b.count.cmp(&a.count).then(a.first_seen.cmp(&b.first_seen)));
        assert_eq!(
            urr.top_k_failure_groups(usize::MAX),
            ranked,
            "case {case}: top-k ranking"
        );
        assert_eq!(
            urr.largest_failure_count(),
            ranked.first().map(|g| g.count),
            "case {case}: largest group"
        );
        if !ranked.is_empty() {
            let k = 1 + rng.below(ranked.len());
            assert_eq!(
                urr.top_k_failure_groups(k),
                ranked[..k],
                "case {case}: top-{k}"
            );
        }

        // Windowed discovery queries agree with filtering the
        // reference's group list on first_seen.
        let total = refr.stats().total as u64;
        for window in [0..total, 0..total / 2, total / 3..total, 1..1 + total / 2] {
            let expect: Vec<_> = ref_groups
                .iter()
                .filter(|g| window.contains(&g.first_seen))
                .cloned()
                .collect();
            assert_eq!(
                urr.first_seen_in(window.clone()),
                expect,
                "case {case}: first_seen_in {window:?}"
            );
        }

        // Per-cluster rates match tallies recomputed from the raw
        // reference stream.
        let mut tallies = vec![(0usize, 0usize); clusters];
        for r in refr.all() {
            if r.outcome.is_success() {
                tallies[r.cluster].0 += 1;
            } else {
                tallies[r.cluster].1 += 1;
            }
        }
        let expect: Vec<(usize, usize, usize)> = tallies
            .iter()
            .enumerate()
            .filter(|(_, (s, f))| s + f > 0)
            .map(|(c, &(s, f))| (c, s, f))
            .collect();
        let got: Vec<(usize, usize, usize)> = urr
            .cluster_failure_rates()
            .into_iter()
            .map(|r| (r.cluster, r.successes, r.failures))
            .collect();
        assert_eq!(got, expect, "case {case}: cluster failure rates");

        // Both serialised forms restore into equal repositories.
        let restored = Urr::from_json(&refr.to_json()).expect("reference json");
        assert_eq!(restored.all(), urr.all(), "case {case}: json cross-load");
        assert_eq!(
            restored.failure_groups(),
            urr.failure_groups(),
            "case {case}: json cross-load groups"
        );
    }
}

/// `UrrStats::image_bytes` must equal the exact byte accounting of
/// every deposited image, in both planes, under random streams.
#[test]
fn image_bytes_accounting_matches_deposits() {
    let mut rng = Rng::new(0xacc0_0a7e);
    for case in 0..10 {
        let stream: Vec<Report> = (0..rng.below(80))
            .map(|_| random_report(&mut rng, 12, 4))
            .collect();
        let expected: usize = stream
            .iter()
            .filter_map(|r| r.image.as_ref())
            .map(ReportImage::byte_size)
            .sum();
        let urr = Urr::with_shards(4);
        let refr = reference::Urr::new();
        for r in stream {
            refr.deposit(r.clone());
            urr.deposit(r);
        }
        assert_eq!(urr.stats().image_bytes, expected, "case {case}: sharded");
        assert_eq!(refr.stats().image_bytes, expected, "case {case}: reference");
    }
}

// ---------------------------------------------------------------------
// Codec round-trips
// ---------------------------------------------------------------------

/// Strings that stress every branch of the hand-rolled escaper/parser.
fn hostile_string(rng: &mut Rng) -> String {
    const ATOMS: &[&str] = &[
        "\"",
        "\\",
        "/",
        "\u{0008}",
        "\u{000c}",
        "\n",
        "\r",
        "\t",
        "\u{0000}",
        "\u{001f}",
        "\u{007f}",
        "é",
        "日本語",
        "🦀",
        "\u{fffd}",
        "plain",
        " ",
        "{}[],:",
        "\\u0041",
        "ends with backslash\\",
    ];
    let n = rng.below(6);
    let mut s = String::new();
    for _ in 0..n {
        s.push_str(ATOMS[rng.below(ATOMS.len())]);
    }
    s
}

/// Property: any report built from hostile strings round-trips through
/// compact *and* pretty JSON byte-for-byte equal (escapes, unicode,
/// control characters, nested image arrays).
#[test]
fn codec_roundtrips_hostile_reports() {
    use mirage_telemetry::json::Value;
    let mut rng = Rng::new(0xc0de_c0de);
    for case in 0..60 {
        let machine = hostile_string(&mut rng);
        let cluster = rng.below(1 << 20);
        let package = hostile_string(&mut rng);
        let version = hostile_string(&mut rng);
        let mut report = if rng.chance(50) {
            Report::success(machine, cluster, package, version)
        } else {
            let list = |rng: &mut Rng| -> Vec<String> {
                (0..rng.below(4)).map(|_| hostile_string(rng)).collect()
            };
            let image = ReportImage::new(
                hostile_string(&mut rng),
                list(&mut rng),
                list(&mut rng),
                list(&mut rng),
            );
            Report::failure(
                machine,
                cluster,
                package,
                version,
                hostile_string(&mut rng),
                hostile_string(&mut rng),
                image,
            )
        };
        report.seq = rng.next() % (1 << 53); // exactly representable
        for json in [report.to_json().to_compact(), report.to_json().to_pretty()] {
            let back = Report::from_json(&Value::parse(&json).expect("parse"))
                .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}\n{json}"));
            assert_eq!(report, back, "case {case}");
        }
    }
}

/// Numeric edge cases: zero, one, `u32`/`f64`-mantissa boundaries —
/// the largest integers the float-backed codec represents exactly.
#[test]
fn codec_numeric_edge_cases() {
    use mirage_telemetry::json::Value;
    for seq in [0u64, 1, (1 << 32) - 1, 1 << 32, (1 << 53) - 1, 1 << 53] {
        for cluster in [0usize, 1, u32::MAX as usize] {
            let mut report = Report::success("m", cluster, "p", "1");
            report.seq = seq;
            let json = report.to_json().to_compact();
            let back = Report::from_json(&Value::parse(&json).unwrap()).unwrap();
            assert_eq!(back.seq, seq);
            assert_eq!(back.cluster, cluster);
        }
    }
    // Non-integer and negative sequence values are rejected as shapes.
    let bad = Value::obj([
        ("machine", Value::str("m")),
        ("cluster", Value::from(0.5f64)),
        ("package", Value::str("p")),
        ("version", Value::str("1")),
        ("outcome", Value::obj([("kind", Value::str("success"))])),
        ("seq", Value::from(-1i64)),
        ("image", Value::Null),
    ]);
    assert!(Report::from_json(&bad).is_err());
}

/// Whole-repository JSON round-trips on hostile random streams, across
/// both implementations (same document format).
#[test]
fn codec_repository_roundtrip_hostile() {
    let mut rng = Rng::new(0x0bad_f00d);
    for _ in 0..6 {
        let urr = Urr::with_shards(2);
        for _ in 0..rng.below(40) {
            let mut r = random_report(&mut rng, 8, 3);
            // Swap in a hostile machine name on some reports.
            if rng.chance(30) {
                r.machine = hostile_string(&mut rng);
            }
            if rng.chance(20) {
                if let ReportOutcome::Failure { signature, .. } = &mut r.outcome {
                    *signature = hostile_string(&mut rng);
                }
            }
            urr.deposit(r);
        }
        let json = urr.to_json();
        let sharded = Urr::from_json(&json).expect("sharded reload");
        let refr = reference::Urr::from_json(&json).expect("reference reload");
        assert_eq!(sharded.all(), urr.all());
        assert_eq!(refr.all(), urr.all());
        assert_eq!(sharded.stats(), urr.stats());
        assert_eq!(refr.stats(), urr.stats());
    }
}
