//! `urr_vendor`: the report repository alone — journaled ingest with
//! snapshot freezes and framed vendor queries interleaved on one
//! thread, then crash recovery.
//!
//! One thread on purpose: the 4-reader + 1-writer mix of `repro
//! urr-store-perf` measures the scheduler on a 2-core host.

use std::hint::black_box;

use mirage_report::{
    DurableConfig, DurableUrr, InternedOutcome, InternedReport, MemoryStore, UrrRequest,
    UrrResponse,
};

use crate::harness::{quantile, Ops, Opts, Traced, Values, Workload};
use crate::names::*;
use crate::trace::Tracer;

const CLUSTERS: usize = 100;
const SIGNATURES: usize = 20;
/// Records per journaled batch: the simulator's `UrrSink` flush size.
const BATCH: usize = 4096;
/// Framed requests served from each fresh snapshot.
const QUERIES_PER_BATCH: usize = 48;
/// A compacted snapshot lands mid-run, so ingest pays for writing one
/// and recovery is snapshot plus WAL tail, not replay alone.
const SNAPSHOT_EVERY_BATCHES: u64 = 64;

fn config() -> DurableConfig {
    DurableConfig {
        snapshot_every_batches: SNAPSHOT_EVERY_BATCHES,
        ..DurableConfig::default()
    }
}

/// The vendor-side repository workload.
#[derive(Debug)]
pub struct UrrVendor {
    reports: usize,
    seed: u64,
}

impl UrrVendor {
    /// `urr_vendor`: 500 000 reports, one in ten a failure.
    pub fn new(opts: &Opts) -> Self {
        UrrVendor {
            reports: if opts.smoke { 10_000 } else { 500_000 },
            seed: opts.seed,
        }
    }

    fn queries(&self) -> usize {
        self.reports.div_ceil(BATCH) * QUERIES_PER_BATCH
    }
}

/// One report before interning: its failure signature, if it failed.
type Outcome = Option<usize>;

/// Names and outcomes, generated; nothing interned yet.
pub struct UrrInput {
    machines: Vec<String>,
    signatures: Vec<String>,
    outcomes: Vec<Outcome>,
    requests: Vec<UrrRequest>,
    request_frames: Vec<Vec<u8>>,
}

/// What a campaign left behind.
pub struct UrrOutput {
    live: DurableUrr,
    /// The repository recovered from a crash image, unless recovery
    /// failed or stopped at a torn tail.
    recovered: Option<DurableUrr>,
    /// Failure records deposited.
    failures: usize,
    served: usize,
    serve_errors: usize,
    serve_bytes: usize,
    requests: Vec<UrrRequest>,
    /// The last snapshot's response to each of `requests`.
    last_responses: Vec<Vec<u8>>,
}

impl Workload for UrrVendor {
    type Input = UrrInput;
    type Output = UrrOutput;

    fn shares(&self) -> &'static [&'static str] {
        &[
            REPORT_INTERN_S,
            REPORT_JOURNAL_APPEND_S,
            REPORT_SNAPSHOT_FREEZE_S,
            REPORT_SERVE_S,
            REPORT_RECOVER_S,
        ]
    }

    fn setup(&self, _t: &Tracer) -> UrrInput {
        // The seed moves which machines fail and with what; the shape
        // (10 % failures over 20 signatures) is fixed.
        let shift = self.seed as usize;
        let requests = vec![
            UrrRequest::TopK(5),
            UrrRequest::Stats,
            UrrRequest::ClusterRates,
            UrrRequest::ReleaseSummaries,
        ];
        UrrInput {
            machines: (0..self.reports).map(|i| format!("m{i:07}")).collect(),
            signatures: (0..SIGNATURES)
                .map(|s| format!("sig-{s:02}-{}", self.seed))
                .collect(),
            outcomes: (0..self.reports)
                .map(|i| ((i + shift) % 10 == 3).then_some(((i + shift) / 10) % SIGNATURES))
                .collect(),
            request_frames: requests.iter().map(UrrRequest::to_frame).collect(),
            requests,
        }
    }

    fn campaign(&self, input: UrrInput, t: &Tracer) -> UrrOutput {
        let store = MemoryStore::new();
        let live = DurableUrr::new(Box::new(store.clone()), config())
            .expect("the memory store cannot fail");
        let recs: Vec<InternedReport> = {
            let _span = t.span(REPORT_INTERN_S);
            let urr = live.urr();
            let machines = urr.intern_machines(input.machines.iter().map(String::as_str));
            let signatures: Vec<_> = input
                .signatures
                .iter()
                .map(|s| urr.intern_signature(s))
                .collect();
            let release = urr.intern_release("upgrade", "r0");
            machines
                .into_iter()
                .zip(&input.outcomes)
                .enumerate()
                .map(|(i, (machine, outcome))| InternedReport {
                    machine,
                    cluster: (i % CLUSTERS) as u32,
                    release,
                    outcome: match outcome {
                        Some(s) => InternedOutcome::Failure(signatures[*s]),
                        None => InternedOutcome::Success,
                    },
                })
                .collect()
        };
        let mut out = UrrOutput {
            live,
            recovered: None,
            failures: input.outcomes.iter().flatten().count(),
            served: 0,
            serve_errors: 0,
            serve_bytes: 0,
            requests: input.requests,
            last_responses: Vec::new(),
        };
        for chunk in recs.chunks(BATCH) {
            {
                let _span = t.span(REPORT_JOURNAL_APPEND_S);
                black_box(out.live.deposit_interned_batch(chunk)).expect("journal batch");
            }
            let frozen = {
                let _span = t.span(REPORT_SNAPSHOT_FREEZE_S);
                out.live.urr().snapshot()
            };
            out.last_responses.clear();
            for q in 0..QUERIES_PER_BATCH {
                let request = &input.request_frames[q % input.request_frames.len()];
                let response = {
                    let _span = t.span(REPORT_SERVE_S);
                    frozen.serve(request)
                };
                out.served += 1;
                match response {
                    Ok(frame) => {
                        out.serve_bytes += frame.len();
                        if q < input.request_frames.len() {
                            out.last_responses.push(frame);
                        }
                    }
                    Err(_) => out.serve_errors += 1,
                }
            }
        }
        let _span = t.span(REPORT_RECOVER_S);
        out.recovered = DurableUrr::recover(Box::new(store.fork()), config())
            .ok()
            .and_then(|(back, report)| report.torn_tail.is_none().then_some(back));
        out
    }

    fn check(&self, out: &UrrOutput, _thorough: bool, ops: &mut Ops, exact: &mut Values) {
        let stats = out.live.urr().stats();
        ops.count(
            self.reports,
            self.reports.abs_diff(stats.total) + out.failures.abs_diff(stats.failures),
            "every report is stored with its outcome",
        );
        ops.count(
            self.queries(),
            self.queries().abs_diff(out.served) + out.serve_errors,
            "every request is served",
        );
        // Nothing was deposited after the last freeze, so the live
        // repository must answer as the last snapshot did.
        let frozen = out.live.urr().snapshot();
        let right = out
            .requests
            .iter()
            .zip(&out.last_responses)
            .filter(|(request, frame)| {
                UrrResponse::from_frame(frame).is_ok_and(|r| r == frozen.answer(request))
            })
            .count();
        ops.count(
            out.requests.len(),
            out.requests.len() - right,
            "the last snapshot's responses decode to the right answers",
        );
        // Recovery itself is inside the campaign; comparing is not.
        let equal = out.recovered.as_ref().is_some_and(|back| {
            let (back, live) = (back.urr(), out.live.urr());
            back.next_seq() == live.next_seq()
                && back.stats() == stats
                && back.snapshot() == live.snapshot()
        });
        ops.invariant(equal, "recovered repository equals the live one");
        exact.insert(REPORT_RECOVERED_EQUAL, f64::from(u8::from(equal)));
        exact.insert(REPORT_SERVE_BYTES, out.serve_bytes as f64);
    }

    fn layers(&self, traced: &Traced<'_>, _ops: &mut Ops, out: &mut Values) {
        let mut serve_us: Vec<f64> = traced
            .t
            .durations(traced.repeat, REPORT_SERVE_S)
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        out.insert(REPORT_SERVE_P50_US, quantile(&mut serve_us, 0.5));
        out.insert(REPORT_SERVE_P99_US, quantile(&mut serve_us, 0.99));
        out.insert(
            REPORT_APPEND_REPORTS_PER_S,
            self.reports as f64 / out[REPORT_JOURNAL_APPEND_S],
        );
    }
}
