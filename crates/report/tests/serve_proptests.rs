//! Randomised tests of the vendor serving layer: request/response
//! frames must round-trip hostile strings byte-exactly, every corrupted
//! or truncated frame must be rejected cleanly, and a frozen
//! [`UrrSnapshot`] must keep answering identically from many reader
//! threads while ingest continues on the live repository.

use std::sync::Arc;

use mirage_report::{
    DurableConfig, DurableUrr, MemoryStore, Report, ReportImage, Urr, UrrRequest, UrrResponse,
    UrrSnapshot,
};

/// Deterministic xorshift64 generator (same idiom as `proptests.rs`).
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

const SIGNATURES: &[&str] = &[
    "php/crash",
    "ssh/\"quoted\"",
    "esc\\backslash\nnewline\ttab",
    "unicode/日本語-🦀",
    "",
    "control/\u{0001}\u{001f}",
];

fn random_request(rng: &mut Rng) -> UrrRequest {
    let sig = || SIGNATURES[0];
    match rng.below(8) {
        0 => UrrRequest::Stats,
        1 => UrrRequest::FailureGroups,
        2 => UrrRequest::TopK(rng.next()),
        3 => UrrRequest::ClusterRates,
        4 => {
            let start = rng.next();
            UrrRequest::FirstSeenIn {
                start,
                end: start.wrapping_add(rng.below(1000) as u64),
            }
        }
        5 => UrrRequest::MachinesForSignature {
            signature: SIGNATURES[rng.below(SIGNATURES.len())].to_string(),
        },
        6 => UrrRequest::ClustersForSignature {
            signature: SIGNATURES[rng.below(SIGNATURES.len())].to_string(),
        },
        _ => {
            let _ = sig;
            UrrRequest::ReleaseSummaries
        }
    }
}

fn populated(rng: &mut Rng, reports: usize) -> Urr {
    let urr = Urr::new();
    for _ in 0..reports {
        let machine = format!("m{}", rng.below(12));
        let cluster = rng.below(5);
        if rng.chance(50) {
            urr.deposit(Report::success(machine, cluster, "mysql", "5.0.27"));
        } else {
            urr.deposit(Report::failure(
                machine,
                cluster,
                "mysql",
                "5.0.27",
                SIGNATURES[rng.below(SIGNATURES.len())],
                "d",
                ReportImage::default(),
            ));
        }
    }
    urr
}

/// Random requests round-trip through their frames, and the snapshot's
/// framed answer always decodes back to the direct answer.
#[test]
fn request_response_frames_roundtrip_randomised() {
    let mut rng = Rng::new(0x5eed_0008);
    let snap = populated(&mut rng, 200).snapshot();
    for case in 0..500 {
        let req = random_request(&mut rng);
        let frame = req.to_frame();
        assert_eq!(
            UrrRequest::from_frame(&frame).unwrap(),
            req,
            "case {case}: request roundtrip"
        );
        let resp_frame = snap.serve(&frame).unwrap();
        let resp = UrrResponse::from_frame(&resp_frame).unwrap();
        assert_eq!(
            resp,
            snap.answer(&req),
            "case {case}: response matches direct answer"
        );
        assert_eq!(
            resp.to_frame(),
            resp_frame,
            "case {case}: response re-encode"
        );
    }
}

const MACHINES: &[&str] = &[
    "m0",
    "",
    "m \"quoted\"",
    "m\\back\nslash\t",
    "machine/日本語-🦀",
    "ctl/\u{0001}\u{001f}\u{007f}",
    "a-much-longer-machine-name-than-any-of-the-others-in-this-list",
];

/// Every request kind, at the edges: no groups and all of them, empty
/// and inverted windows, signatures the repository never saw.
fn edge_requests(as_of: u64) -> Vec<UrrRequest> {
    let mut requests = vec![
        UrrRequest::Stats,
        UrrRequest::FailureGroups,
        UrrRequest::ClusterRates,
        UrrRequest::ReleaseSummaries,
    ];
    for k in [0, 1, 2, 5, 1000, u64::MAX] {
        requests.push(UrrRequest::TopK(k));
    }
    for (start, end) in [
        (0, u64::MAX),
        (0, 0),
        (as_of / 2, as_of / 2),
        (as_of, 0),
        (u64::MAX, 0),
        (1, as_of / 2),
        (as_of / 2, as_of + 7),
        (as_of, u64::MAX),
    ] {
        requests.push(UrrRequest::FirstSeenIn { start, end });
    }
    for signature in SIGNATURES.iter().chain(&["never/seen", "php/crash "]) {
        let signature = signature.to_string();
        requests.push(UrrRequest::MachinesForSignature {
            signature: signature.clone(),
        });
        requests.push(UrrRequest::ClustersForSignature { signature });
    }
    requests
}

/// The identity the serving path rests on: `UrrSnapshot::serve`
/// encodes in place from the frozen view, `answer` + `to_frame` builds
/// the typed response and encodes that, and the two frames are the same
/// bytes — for every request kind, on repositories whose signatures and
/// machine names are hostile, on the empty repository, and with the
/// typed accessors still equal to the live repository's.
#[test]
fn serve_writes_the_bytes_answer_would() {
    let mut rng = Rng::new(0x5eed_0013);
    for case in 0..24 {
        // Case 0 is the empty repository.
        let reports = [0, 1, 7, 60, 300][case % 5] * usize::from(case > 0);
        let urr = Urr::new();
        for _ in 0..reports {
            let machine = MACHINES[rng.below(MACHINES.len())];
            let cluster = rng.below(5);
            let version = ["5.0.27", "5.0.28", ""][rng.below(3)];
            urr.deposit(if rng.chance(30) {
                Report::success(machine, cluster, "mysql", version)
            } else {
                let signature = SIGNATURES[rng.below(SIGNATURES.len())];
                let image = ReportImage::default();
                Report::failure(machine, cluster, "mysql", version, signature, "d", image)
            });
        }
        let snap = urr.snapshot();

        assert_eq!(snap.failure_groups(), urr.failure_groups(), "case {case}");
        assert_eq!(snap.stats(), urr.stats(), "case {case}");
        for k in [0, 1, 3, usize::MAX] {
            assert_eq!(
                snap.top_k_failure_groups(k),
                urr.top_k_failure_groups(k),
                "case {case}: top {k}"
            );
        }

        let mut requests = edge_requests(snap.as_of());
        requests.extend((0..40).map(|_| random_request(&mut rng)));
        for req in requests {
            let served = snap.serve(&req.to_frame()).expect("a valid request");
            let answered = snap.answer(&req);
            assert_eq!(served, answered.to_frame(), "case {case}: {req:?}");
            match &req {
                UrrRequest::FirstSeenIn { start, end } => assert_eq!(
                    answered,
                    UrrResponse::Groups(urr.first_seen_in(*start..*end)),
                    "case {case}: {req:?}"
                ),
                UrrRequest::MachinesForSignature { signature } => assert_eq!(
                    answered,
                    UrrResponse::Machines(urr.machines_for_signature(signature)),
                    "case {case}: {req:?}"
                ),
                _ => {}
            }
        }
    }
}

/// `serve` writes for every request kind — the edges, and random ones —
/// the bytes `answer` + `to_frame` would.
fn assert_serves_its_answers(snap: &UrrSnapshot, rng: &mut Rng, ctx: &str) {
    let mut requests = edge_requests(snap.as_of());
    requests.extend((0..8).map(|_| random_request(rng)));
    for req in requests {
        let served = snap.serve(&req.to_frame()).expect("a valid request");
        assert_eq!(served, snap.answer(&req).to_frame(), "{ctx}: {req:?}");
    }
}

/// A freeze writes only the machine names that arrived since the last
/// one, so freezing often must not change what a freeze sees. Seeded
/// streams are journaled and frozen after every batch, or after every
/// single deposit, with freezes that find nothing new among them; each
/// snapshot must equal the one a twin repository fed the same stream
/// gives at its first freeze, and serve every request kind as `answer`
/// would. A repository recovered from the journal must do the same at
/// its own first freeze.
#[test]
fn repeated_freezes_equal_one_freeze_of_the_same_stream() {
    let mut rng = Rng::new(0x5eed_0026);
    for case in 0..12 {
        let config = || DurableConfig {
            snapshot_every_batches: 3,
            ..DurableConfig::default()
        };
        let store = MemoryStore::new();
        let live = DurableUrr::new(Box::new(store.clone()), config()).expect("memory store");
        let mut stream: Vec<Report> = Vec::new();
        let freeze = |stream: &[Report], rng: &mut Rng, at: &str| {
            let snap = live.urr().snapshot();
            let twin = Urr::new();
            for report in stream {
                twin.deposit(report.clone());
            }
            let ctx = format!("case {case}, {at}");
            assert_eq!(snap, twin.snapshot(), "{ctx}: one freeze of the stream");
            assert_serves_its_answers(&snap, rng, &ctx);
        };
        let single_deposits = case % 2 == 1;
        for batch in 0..1 + rng.below(6) {
            // A few machines report again and again, so most batches
            // bring a known name to a group as well as a new one.
            let reports: Vec<Report> = (0..rng.below(30))
                .map(|_| {
                    let machine = match rng.below(3) {
                        0 => MACHINES[rng.below(MACHINES.len())].to_string(),
                        _ => format!("m{}", rng.below(60)),
                    };
                    let cluster = rng.below(5);
                    if rng.chance(25) {
                        Report::success(machine, cluster, "mysql", "5.0.27")
                    } else {
                        let signature = SIGNATURES[rng.below(SIGNATURES.len())];
                        let image = ReportImage::default();
                        Report::failure(machine, cluster, "mysql", "5.0.27", signature, "d", image)
                    }
                })
                .collect();
            if single_deposits {
                for (i, report) in reports.into_iter().enumerate() {
                    stream.push(report.clone());
                    live.deposit(report).expect("journal");
                    freeze(&stream, &mut rng, &format!("batch {batch} deposit {i}"));
                }
            } else {
                stream.extend(reports.iter().cloned());
                live.deposit_batch(reports).expect("journal");
                freeze(&stream, &mut rng, &format!("batch {batch}"));
            }
            if rng.chance(40) {
                freeze(&stream, &mut rng, &format!("batch {batch}, nothing new"));
            }
        }
        let (back, report) =
            DurableUrr::recover(Box::new(store.fork()), config()).expect("recover");
        assert!(report.torn_tail.is_none(), "case {case}: {report:?}");
        let snap = back.urr().snapshot();
        assert_eq!(snap, live.urr().snapshot(), "case {case}: recovered");
        assert_serves_its_answers(&snap, &mut rng, &format!("case {case}, recovered"));
    }
}

/// Every single-bit corruption and every truncation of valid request
/// *and* response frames is rejected cleanly (or, for in-payload bits
/// caught only by CRC, still never panics).
#[test]
fn corrupted_frames_are_rejected_not_panicked() {
    let mut rng = Rng::new(0x5eed_0009);
    let snap = populated(&mut rng, 60).snapshot();
    for case in 0..40 {
        let req = random_request(&mut rng);
        let req_frame = req.to_frame();
        let resp_frame = snap.serve(&req_frame).unwrap();
        for frame in [&req_frame, &resp_frame] {
            for len in 0..frame.len() {
                assert!(
                    UrrRequest::from_frame(&frame[..len]).is_err(),
                    "case {case}: truncated request accepted at {len}"
                );
                assert!(
                    UrrResponse::from_frame(&frame[..len]).is_err(),
                    "case {case}: truncated response accepted at {len}"
                );
            }
            // Single-bit flips: the CRC catches them; decode must error.
            for _ in 0..32 {
                let mut bad = frame.clone();
                let i = rng.below(bad.len());
                bad[i] ^= 1 << rng.below(8);
                if bad == *frame {
                    continue;
                }
                assert!(
                    UrrRequest::from_frame(&bad).is_err(),
                    "case {case}: bit-flipped request accepted"
                );
                assert!(
                    UrrResponse::from_frame(&bad).is_err(),
                    "case {case}: bit-flipped response accepted"
                );
            }
        }
    }
}

/// N reader threads hammer one frozen snapshot while the live
/// repository keeps ingesting: every reader sees the identical frozen
/// answers throughout, and a snapshot taken afterwards sees the new
/// deposits.
#[test]
fn frozen_snapshot_serves_concurrent_readers_during_ingest() {
    let mut rng = Rng::new(0x5eed_000a);
    let urr = Arc::new(populated(&mut rng, 300));
    let snap = Arc::new(urr.snapshot());
    let baseline_stats = snap.stats();
    let baseline_groups = snap.failure_groups();
    let baseline_top = snap.top_k_failure_groups(3);

    let readers: Vec<_> = (0..8)
        .map(|t| {
            let snap = Arc::clone(&snap);
            let baseline_stats = baseline_stats.clone();
            let baseline_groups = baseline_groups.clone();
            let baseline_top = baseline_top.clone();
            std::thread::spawn(move || {
                let mut rng = Rng::new(0x1000 + t);
                for i in 0..300 {
                    let req = random_request(&mut rng);
                    let resp_frame = snap.serve(&req.to_frame()).expect("serve");
                    let resp = UrrResponse::from_frame(&resp_frame).expect("decode");
                    assert_eq!(resp, snap.answer(&req), "reader {t} iter {i}");
                    assert_eq!(
                        snap.stats(),
                        baseline_stats,
                        "reader {t} iter {i}: stats moved"
                    );
                    if i % 50 == 0 {
                        assert_eq!(snap.failure_groups(), baseline_groups);
                        assert_eq!(snap.top_k_failure_groups(3), baseline_top);
                    }
                }
            })
        })
        .collect();

    let writer = {
        let urr = Arc::clone(&urr);
        std::thread::spawn(move || {
            let mut rng = Rng::new(0x2000);
            for _ in 0..2000 {
                let machine = format!("w{}", rng.below(40));
                urr.deposit(Report::failure(
                    machine,
                    rng.below(5),
                    "mysql",
                    "5.0.28",
                    SIGNATURES[rng.below(SIGNATURES.len())],
                    "",
                    ReportImage::default(),
                ));
            }
        })
    };

    for r in readers {
        r.join().expect("reader");
    }
    writer.join().expect("writer");

    assert_eq!(snap.stats(), baseline_stats, "frozen view never moved");
    let after = urr.snapshot();
    assert_eq!(
        after.stats().total,
        baseline_stats.total + 2000,
        "a fresh snapshot sees the concurrent ingest"
    );
}

/// A freeze is a cut at `as_of`, whatever ingest runs beside it: one
/// writer deposits by name, in by-name batches and in interned batches
/// while the main thread freezes again and again, and every snapshot's
/// surfaces count exactly the `as_of` reports below its watermark —
/// stats, group counts, cluster tallies and release tallies alike.
#[test]
fn a_freeze_under_ingest_is_a_cut_at_as_of() {
    use mirage_report::{InternedOutcome, InternedReport};

    let urr = Arc::new(Urr::new());
    let writer = {
        let urr = Arc::clone(&urr);
        std::thread::spawn(move || {
            let mut rng = Rng::new(0x5eed_0036);
            let release = urr.intern_release("mysql", "5.0.29");
            let sigs: Vec<_> = SIGNATURES.iter().map(|s| urr.intern_signature(s)).collect();
            let report = |rng: &mut Rng| {
                let machine = format!("w{}", rng.below(50));
                let cluster = rng.below(5);
                if rng.chance(40) {
                    Report::success(machine, cluster, "mysql", "5.0.28")
                } else {
                    let signature = SIGNATURES[rng.below(SIGNATURES.len())];
                    let image = ReportImage::default();
                    Report::failure(machine, cluster, "mysql", "5.0.28", signature, "", image)
                }
            };
            for _ in 0..300 {
                match rng.below(3) {
                    0 => {
                        urr.deposit(report(&mut rng));
                    }
                    1 => {
                        let batch = (0..rng.below(40)).map(|_| report(&mut rng)).collect();
                        urr.deposit_batch(batch);
                    }
                    _ => {
                        let batch: Vec<InternedReport> = (0..rng.below(200))
                            .map(|_| InternedReport {
                                machine: urr.intern_machine(&format!("i{}", rng.below(80))),
                                cluster: rng.below(7) as u32,
                                release,
                                outcome: if rng.chance(50) {
                                    InternedOutcome::Success
                                } else {
                                    InternedOutcome::Failure(sigs[rng.below(sigs.len())])
                                },
                            })
                            .collect();
                        urr.deposit_interned_batch(&batch);
                    }
                }
            }
        })
    };
    let mut freezes = 0;
    let mut last = 0;
    while !writer.is_finished() || freezes == 0 {
        let snap = urr.snapshot();
        let stats = snap.stats();
        let ctx = format!("freeze {freezes} at {}", snap.as_of());
        assert_eq!(stats.total as u64, snap.as_of(), "{ctx}: total");
        assert!(snap.as_of() >= last, "{ctx}: the watermark moves forward");
        let groups = snap.failure_groups();
        let grouped: usize = groups.iter().map(|g| g.count).sum();
        assert_eq!(grouped, stats.failures, "{ctx}: group counts");
        assert_eq!(groups.len(), stats.distinct_failures, "{ctx}: groups");
        assert!(
            groups.iter().all(|g| g.first_seen < snap.as_of()),
            "{ctx}: a group first seen past the watermark"
        );
        let rates = snap.cluster_failure_rates();
        let by_cluster: usize = rates.iter().map(|r| r.successes + r.failures).sum();
        assert_eq!(by_cluster, stats.total, "{ctx}: cluster tallies");
        let releases = snap.release_summaries();
        let by_release: usize = releases.iter().map(|r| r.successes + r.failures).sum();
        assert_eq!(by_release, stats.total, "{ctx}: release tallies");
        let failed: usize = releases.iter().map(|r| r.failures).sum();
        assert_eq!(failed, stats.failures, "{ctx}: release failures");
        last = snap.as_of();
        freezes += 1;
    }
    writer.join().expect("writer");
    let snap = urr.snapshot();
    assert_eq!(snap.stats().total as u64, urr.next_seq());
    assert_eq!(snap, urr.snapshot(), "a quiescent freeze is repeatable");
}
