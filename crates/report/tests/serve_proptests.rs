//! Randomised tests of the vendor serving layer: request/response
//! frames must round-trip hostile strings byte-exactly, every corrupted
//! or truncated frame must be rejected cleanly, and a frozen
//! [`UrrSnapshot`] must keep answering identically from many reader
//! threads while ingest continues on the live repository.

use std::sync::Arc;

use mirage_report::{Report, ReportImage, Urr, UrrRequest, UrrResponse};

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
    let urr = Urr::with_shards(4);
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
        let urr = Urr::with_shards(1 << (case % 3));
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
