//! Randomised tests of the report crate: on random report streams the
//! repository's filters and tallies must agree with the raw stream, and
//! its grouped views must reproduce the recorded answers of the
//! string-keyed reference it replaced.
//!
//! Streams are generated with a seeded xorshift generator, so every run
//! exercises the same cases deterministically and offline.

use mirage_report::{Report, ReportImage, Urr};

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

/// Signature pool with deliberately hostile names: these exercise
/// escaping, unicode, and empty-string handling end to end.
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

/// The string-keyed reference repository's answers on the streams of
/// [`urr_matches_the_recorded_reference`], one line per case, recorded
/// from it before it was retired.
const REFERENCE_QUERIES: &str = include_str!("reference_queries.txt");

/// FNV-1a, 64-bit: the digest the record keeps of a `Debug` rendering.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The record's line for one case: headline counts in clear, then the
/// digests of the four grouped views.
fn record_line(case: usize, urr: &Urr) -> String {
    let (stats, groups) = (urr.stats(), urr.failure_groups());
    format!(
        "{case} total={} failures={} groups={} stats={:016x} failure_groups={:016x} \
         release_summaries={:016x} discovery_profile={:016x}",
        stats.total,
        stats.failures,
        groups.len(),
        fnv1a64(&format!("{stats:?}")),
        fnv1a64(&format!("{groups:?}")),
        fnv1a64(&format!("{:?}", urr.release_summaries())),
        fnv1a64(&format!("{:?}", urr.discovery_profile())),
    )
}

/// The seeded equivalence property: for random report streams, through
/// both the one-at-a-time and the batched ingest path, the interned
/// [`Urr`]'s stats, failure groups, release summaries and discovery
/// profile are the ones the string-keyed reference gave (recorded in
/// `reference_queries.txt`); its deposit-order snapshot, version and
/// cluster filters and cluster rates are filters and tallies of the raw
/// stream; and its drill-downs, top-k ranking and first-seen windows
/// are views of the record-pinned failure groups.
#[test]
fn urr_matches_the_recorded_reference() {
    let mut record = REFERENCE_QUERIES.lines().filter(|l| !l.starts_with('#'));
    let mut rng = Rng::new(0x5eed_0005);
    for case in 0..24 {
        let machines = 2 + rng.below(20);
        let clusters = 1 + rng.below(6);
        let len = rng.below(120);
        let stream: Vec<Report> = (0..len)
            .map(|_| random_report(&mut rng, machines, clusters))
            .collect();

        let urr = Urr::new();
        if case % 2 == 0 {
            for r in stream.iter().cloned() {
                urr.deposit(r);
            }
        } else {
            urr.deposit_batch(stream.clone());
        }

        let got = record_line(case, &urr);
        assert_eq!(
            record.next(),
            Some(got.as_str()),
            "case {case}: stats, failure groups, release summaries or discovery \
             profile diverged from the recorded reference; the repository gives\n{got}"
        );

        // The snapshot is the stream in deposit order, sequence-numbered.
        let deposited: Vec<Report> = stream
            .iter()
            .cloned()
            .zip(0..)
            .map(|(r, seq)| Report { seq, ..r })
            .collect();
        assert_eq!(urr.all(), deposited, "case {case}: deposit-order snapshot");
        for (package, version) in PACKAGES {
            let expect: Vec<Report> = deposited
                .iter()
                .filter(|r| r.package == *package && r.version == *version)
                .cloned()
                .collect();
            assert_eq!(
                urr.for_version(package, version),
                expect,
                "case {case}: for_version {package} {version}"
            );
        }
        for cluster in 0..clusters {
            let expect: Vec<Report> = deposited
                .iter()
                .filter(|r| r.cluster == cluster)
                .cloned()
                .collect();
            assert_eq!(
                urr.for_cluster(cluster),
                expect,
                "case {case}: for_cluster {cluster}"
            );
        }

        // Drill-downs agree with the grouped view.
        let groups = urr.failure_groups();
        for g in &groups {
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
        let mut ranked = groups.clone();
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

        // Windowed discovery queries agree with filtering the group
        // list on first_seen.
        let total = stream.len() as u64;
        for window in [0..total, 0..total / 2, total / 3..total, 1..1 + total / 2] {
            let expect: Vec<_> = groups
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
        // stream.
        let mut tallies = vec![(0usize, 0usize); clusters];
        for r in &stream {
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
    }
    assert_eq!(
        record.next(),
        None,
        "the record holds cases no stream makes"
    );
}

/// `UrrStats::image_bytes` must equal the exact byte accounting of
/// every deposited image, under random streams.
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
        let urr = Urr::new();
        for r in stream {
            urr.deposit(r);
        }
        assert_eq!(urr.stats().image_bytes, expected, "case {case}");
    }
}
