//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [experiment] [--csv <dir>] [--telemetry <path>] [--smoke]
//! ```
//!
//! The experiments are the rows of [`EXPERIMENTS`]; an unknown name
//! prints them with their one-line help and exits 2. With no name,
//! `all` runs every row marked as part of it.
//!
//! With `--csv <dir>`, the CDF figures additionally write plot-ready
//! CSV series (`fig10.csv`, `fig11.csv`: label,time,fraction rows),
//! Table 1 writes `table1.csv`, and the benchmark suites write their
//! `BENCH_*.json` documents there instead of the working directory.
//!
//! With `--telemetry <path>`, an instrumented deployment simulation and
//! a full instrumented Apache ACL campaign are run, and the combined
//! metrics snapshot — phase span timings, named counters, the sim's
//! queue-depth high-water gauge, and per-kind journal counts — is
//! written to `<path>` as pretty-printed JSON. Passing `--telemetry`
//! alone selects the `telemetry` experiment.
//!
//! `--smoke` shrinks the fleets and volumes of `urr-perf`, `trace`,
//! `health` and `urr-store-perf` so CI can exercise every path quickly;
//! `MIRAGE_BENCH_MS` sets the per-benchmark sampling budget (default
//! 150 ms).

use std::path::{Path, PathBuf};
use std::time::Instant;

use mirage_bench::doc::{round_to, write_document, BenchDoc};
use mirage_bench::harness::{black_box, Harness};
use mirage_bench::{bar, render_cdf, render_table};
use mirage_cluster::ClusterQuality;
use mirage_deploy::ProtocolChoice;
use mirage_scenarios::{apps, deployment, firefox, mysql, survey};
use mirage_sim::{ScenarioBuilder, Simulation};
use mirage_telemetry::json::Value;

/// What the command line selected, handed to every experiment.
struct Ctx {
    /// `--csv <dir>`: where documents and CSV series go.
    csv: Option<PathBuf>,
    /// `--telemetry <path>`: where the `telemetry` experiment writes.
    telemetry: Option<PathBuf>,
    /// `--smoke`: shrink fleets and volumes for CI.
    smoke: bool,
    /// Running everything rather than one experiment by name.
    all: bool,
}

impl Ctx {
    fn csv(&self) -> Option<&Path> {
        self.csv.as_deref()
    }
}

/// One experiment: name, whether `all` runs it, one-line help, entry
/// point. The single list `main` dispatches from and `usage` prints.
type Experiment = (&'static str, bool, &'static str, fn(&Ctx));

#[rustfmt::skip] // one experiment per line
const EXPERIMENTS: &[Experiment] = &[
    ("fig1", true, "survey: upgrade frequencies (§2.2)", fig1),
    ("fig2", true, "survey: reluctance to upgrade (§2.2)", fig2),
    ("fig3", true, "survey: perceived failure rate (§2.2)", fig3),
    ("table1", true, "heuristic effectiveness (§4.1)", table1),
    ("fig6", true, "MySQL clustering, full parsers (§4.2.1)", fig6),
    ("fig7", true, "MySQL clustering, Mirage parsers (§4.2.1)", fig7),
    ("merge", true, "MySQL clusters merged by ignoring my.cnf items (§4.2.1)", merge),
    ("fig8", true, "Firefox clustering, full parsers (§4.2.2)", fig8),
    ("fig9", true, "Firefox clustering, Mirage parsers (§4.2.2)", fig9),
    ("fig10", true, "deployment latency CDFs, sound clustering (§4.3.2)", fig10),
    ("fig11", true, "deployment latency CDFs, imperfect clustering (§4.3.2)", fig11),
    ("overhead", true, "upgrade-overhead comparison (§4.3.2)", overhead),
    ("telemetry", true, "instrumented journal dump; needs --telemetry <path>", telemetry_dump),
    ("clustering-perf", false, "clustering hot path -> BENCH_clustering.json", clustering_perf),
    ("sim-perf", false, "simulator, 100k to 10M machines -> BENCH_sim.json", sim_perf),
    ("fault-sweep", false, "convergence vs message loss -> BENCH_faults.json", fault_sweep),
    ("sweep", false, "protocol x threshold x loss grid, one arena -> BENCH_sweep.json", sweep),
    ("urr-perf", false, "URR ingest + vendor queries -> BENCH_urr.json", urr_perf),
    ("trace", false, "journal overhead -> BENCH_trace.json + mirage-trace.json", trace),
    ("health", false, "per-wave health under 30% loss -> mirage-health.json", health),
    ("rollback-sweep", false, "guarded rollback grid -> BENCH_rollback.json", rollback_sweep),
    ("urr-store-perf", false, "durable URR: WAL, recovery, serving -> BENCH_storage.json", urr_store_perf),
    ("bench-check", false, "gate the timing BENCH_*.json in --csv dir (default .); exit 1", bench_check),
];

fn usage() -> String {
    let mut out = String::from(
        "usage: repro [experiment] [--csv <dir>] [--telemetry <path>] [--smoke]\n\n\
         experiments (* = part of `all`, the default; --smoke shrinks the fleet or\n\
         volume of urr-perf, trace, health and urr-store-perf):\n",
    );
    for (name, in_all, help, _) in EXPERIMENTS {
        let mark = if *in_all { '*' } else { ' ' };
        out.push_str(&format!("  {name:<16}{mark} {help}\n"));
    }
    out
}

fn main() {
    let mut name: Option<String> = None;
    let mut ctx = Ctx {
        csv: None,
        telemetry: None,
        smoke: false,
        all: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--csv" => ctx.csv = Some(args.next().expect("--csv requires a directory").into()),
            "--telemetry" => {
                ctx.telemetry = Some(
                    args.next()
                        .expect("--telemetry requires a file path")
                        .into(),
                );
            }
            "--smoke" => ctx.smoke = true,
            _ => name = Some(a),
        }
    }
    if let Some(dir) = &ctx.csv {
        std::fs::create_dir_all(dir).expect("create csv output directory");
    }
    // `repro --telemetry out.json` with no experiment runs just the
    // telemetry dump; otherwise default to everything.
    let name = name.or_else(|| ctx.telemetry.is_some().then(|| "telemetry".to_string()));
    ctx.all = matches!(name.as_deref(), None | Some("all"));
    let name = name.unwrap_or_default();
    if !ctx.all && !EXPERIMENTS.iter().any(|(known, ..)| *known == name) {
        eprintln!("error: unknown experiment '{name}'\n{}", usage());
        std::process::exit(2);
    }
    for (known, in_all, _, run) in EXPERIMENTS {
        if *known == name || (ctx.all && *in_all) {
            run(&ctx);
        }
    }
}

/// Validates every committed timing `BENCH_*.json` document against the
/// checks in [`mirage_bench::benchgate`] and exits non-zero when any
/// fails — the `bench-check` CI gate. Documents are read from the `--csv`
/// directory when given, the working directory otherwise. The experiment
/// documents are not read here: tier-1 regenerates and compares them.
fn bench_check(ctx: &Ctx) {
    use mirage_bench::benchgate::{check, SUITES};

    heading("Bench gate: validating committed timing BENCH_*.json documents");
    let dir = ctx.csv().unwrap_or_else(|| Path::new("."));
    let mut failures = 0usize;
    for suite in SUITES {
        let file = suite.file;
        let verdict = std::fs::read_to_string(dir.join(file))
            .map_err(|err| format!("unreadable ({err})"))
            .and_then(|text| check(suite, &text));
        match verdict {
            Ok(notes) => {
                println!("  OK   {file}");
                for note in notes {
                    println!("         - {note}");
                }
            }
            Err(err) => {
                println!("  FAIL {file}: {err}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        println!("=> {failures} document(s) failed the bench gate");
        std::process::exit(1);
    }
    println!("=> all committed timing documents pass the gate");
}

fn heading(title: &str) {
    println!("\n=== {title} ===\n");
}

/// The heading of a suite whose fleet or volume `--smoke` shrinks.
fn suite_heading(ctx: &Ctx, title: &str) {
    heading(&format!(
        "{title}{}",
        if ctx.smoke { " (smoke scale)" } else { "" }
    ));
}

/// `100k` / `1m`: how row names and document keys spell a volume.
fn volume_label(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{}m", n / 1_000_000)
    } else {
        format!("{}k", n / 1_000)
    }
}

/// The sweeps' uniform fleet: clusters × machines per cluster.
fn fleet_dims(smoke: bool) -> (usize, usize) {
    if smoke {
        (8, 125)
    } else {
        (20, 5_000)
    }
}

/// The fault, sweep, trace and health fleets: `clusters`×`size`
/// machines, one representative each, the Figure-10 problems placed in
/// the last clusters to deploy.
fn late_problem_fleet(smoke: bool) -> ScenarioBuilder {
    let (clusters, size) = fleet_dims(smoke);
    ScenarioBuilder::new()
        .clusters(clusters, size, 1)
        .problem_in_clusters(
            deployment::PREVALENT,
            &[clusters - 6, clusters - 5, clusters - 4],
        )
        .problem_in_clusters(deployment::RARE_A, &[clusters - 3])
        .problem_in_clusters(deployment::RARE_B, &[clusters - 2])
}

/// The synthetic report stream `urr-perf` and `urr-store-perf` share, so
/// the journaled numbers read directly against the unjournaled ones:
/// machines across 100 clusters, 10% failures over 20 distinct
/// signatures (the paper's deployment waves fail on the few-percent
/// scale), all against release r0 (a first-wave deployment).
mod stream {
    use mirage_report::{InternedOutcome, InternedReport, Urr};

    pub const CLUSTERS: usize = 100;
    pub const SIGNATURES: usize = 20;

    /// `(main, big)` report volumes.
    pub fn volumes(smoke: bool) -> (usize, usize) {
        if smoke {
            (5_000, 20_000)
        } else {
            (100_000, 1_000_000)
        }
    }

    pub fn machine_names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("m{i:07}")).collect()
    }

    /// `names` in a fixed pseudo-random order (xorshift64 Fisher–Yates).
    pub fn shuffled(mut names: Vec<String>) -> Vec<String> {
        let mut x = 0x5eed_0023_u64;
        for i in (1..names.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            names.swap(i, (x % (i as u64 + 1)) as usize);
        }
        names
    }

    /// The signature the i-th report fails with, if it fails: indexed by
    /// failure ordinal so the stream round-robins through all of them.
    pub fn failure(i: usize) -> Option<usize> {
        (i % 10 == 3).then_some((i / 10) % SIGNATURES)
    }

    /// Interns the stream's names into `urr` and builds one record per
    /// machine.
    pub fn interned(urr: &Urr, names: &[String]) -> Vec<InternedReport> {
        let machines = urr.intern_machines(names.iter().map(String::as_str));
        let sigs: Vec<_> = (0..SIGNATURES)
            .map(|s| urr.intern_signature(&format!("sig-{s:02}")))
            .collect();
        let release = urr.intern_release("upgrade", "r0");
        (0..names.len())
            .map(|i| InternedReport {
                machine: machines[i],
                cluster: (i % CLUSTERS) as u32,
                release,
                outcome: match failure(i) {
                    Some(sig) => InternedOutcome::Failure(sigs[sig]),
                    None => InternedOutcome::Success,
                },
            })
            .collect()
    }
}

/// Benchmarks the Upgrade Report Repository's ingest and query paths
/// and writes `BENCH_urr.json`.
///
/// Ingest compares the interned batch path
/// ([`mirage_report::Urr::deposit_interned_batch`], the one the
/// simulator's `UrrSink` drives) against the retained string-keyed
/// [`mirage_report::reference::Urr`] on the same report stream. Each
/// sample deposits into a *fresh* repository; interning and record
/// construction happen outside the timed region for the interned path,
/// while the reference path's timed region includes the per-report
/// string materialisation its API forces — the same asymmetry the
/// simulator benchmarks report, because it is the asymmetry the
/// redesign exists to remove.
///
/// `urr/intern/ascending-*` and `urr/intern/shuffled-*` time
/// [`mirage_report::Urr::intern_machines`] over the scale volume's
/// names into a fresh repository, in order and in a seeded shuffle: the
/// two ways a name table indexes itself.
///
/// Query latencies (p50/p99 over repeated calls against a built
/// repository) cover the vendor's four dashboard queries: top-k failure
/// groups, full failure grouping, per-cluster failure rates, and a
/// time-windowed first-seen scan.
fn urr_perf(ctx: &Ctx) {
    use mirage_report::{reference, Report, ReportOutcome, Urr};

    let smoke = ctx.smoke;
    suite_heading(ctx, "URR performance: interned ingest + vendor queries");
    let (n_main, n_big) = stream::volumes(smoke);
    let mut h = Harness::new("urr-perf");

    // --- Ingest at the main volume: interned batches vs the
    // retained string-keyed reference, *interleaved* so both paths
    // sample the same machine conditions (allocator state, frequency
    // scaling) and the min-over-min speedup is a paired comparison.
    // Each closure reports the nanoseconds of its *timed region* so
    // per-sample setup (fresh repository, untimed interning) stays out
    // of the statistics.
    let interned_pass = |names: &[String]| -> u64 {
        let urr = Urr::new();
        let recs = stream::interned(&urr, names);
        let t0 = Instant::now();
        for chunk in recs.chunks(4096) {
            black_box(urr.deposit_interned_batch(chunk));
        }
        t0.elapsed().as_nanos() as u64
    };
    let names = stream::machine_names(n_main);
    let proto: Vec<Report> = (0..n_main)
        .map(|i| {
            let report = Report::success(names[i].clone(), i % stream::CLUSTERS, "upgrade", "r0");
            match stream::failure(i) {
                Some(sig) => Report {
                    outcome: ReportOutcome::Failure {
                        signature: format!("sig-{sig:02}"),
                        detail: String::new(),
                    },
                    ..report
                },
                None => report,
            }
        })
        .collect();
    let interned_main = format!("urr/ingest/interned-{}", volume_label(n_main));
    let reference_main = format!("urr/ingest/reference-{}", volume_label(n_main));
    h.bench_paired_ns(
        &interned_main,
        &reference_main,
        || interned_pass(&names),
        || {
            let urr = reference::Urr::new();
            let t0 = Instant::now();
            for r in &proto {
                black_box(urr.deposit(r.clone()));
            }
            t0.elapsed().as_nanos() as u64
        },
    );
    drop(proto);

    // --- Ingest at scale: the interned path only (the reference would
    // dominate the budget at a million reports).
    let names_big = stream::machine_names(n_big);
    let interned_big = format!("urr/ingest/interned-{}", volume_label(n_big));
    h.bench_ns(&interned_big, || interned_pass(&names_big));

    // --- Interning at scale, on both sides of the choice a name table
    // makes from its input: the names in order (the table is its own
    // index) and the same names in a seeded shuffle (it hashes them).
    let intern_pass = |names: &[String]| -> u64 {
        let urr = Urr::new();
        let t0 = Instant::now();
        black_box(urr.intern_machines(names.iter().map(String::as_str)));
        t0.elapsed().as_nanos() as u64
    };
    let label = volume_label(n_big);
    h.bench_ns(&format!("urr/intern/ascending-{label}"), || {
        intern_pass(&names_big)
    });
    let shuffled = stream::shuffled(names_big);
    h.bench_ns(&format!("urr/intern/shuffled-{label}"), || {
        intern_pass(&shuffled)
    });
    drop(shuffled);

    // --- Queries against a built repository of the main volume.
    let query_urr = Urr::new();
    query_urr.deposit_interned_batch(&stream::interned(&query_urr, &names));
    let stats = query_urr.stats();
    assert_eq!(
        stats.total, n_main,
        "query repository holds the full stream"
    );
    assert_eq!(stats.distinct_failures, stream::SIGNATURES);
    let window = 0..(n_main as u64 / 2);
    h.bench("urr/query/top-k-5", || query_urr.top_k_failure_groups(5));
    h.bench("urr/query/failure-groups", || query_urr.failure_groups());
    h.bench("urr/query/cluster-rates", || {
        query_urr.cluster_failure_rates()
    });
    h.bench("urr/query/first-seen-window", || {
        query_urr.first_seen_in(window.clone())
    });

    let reports_per_sec =
        |name: &str, n: usize| n as f64 / (h.row(name).min_ns.max(1) as f64 / 1e9);
    let speedup = h.speedup(&reference_main, &interned_main);
    println!(
        "=> interned ingest is {speedup:.2}x the string-keyed reference \
         at {} reports (min-over-min)",
        volume_label(n_main)
    );
    println!(
        "=> ingest throughput: interned {:.0}/s, reference {:.0}/s, interned-{} {:.0}/s",
        reports_per_sec(&interned_main, n_main),
        reports_per_sec(&reference_main, n_main),
        volume_label(n_big),
        reports_per_sec(&interned_big, n_big),
    );

    let mut doc = BenchDoc::new(
        "urr-perf",
        format!(
            "{n_main} reports over {} clusters, 10% failures across {} signatures; interned = \
             4096-record batches into a fresh repository per sample (interning \
             untimed); reference = the retained string-keyed repository, timed region \
             includes the per-report string materialisation its API forces; queries run \
             against the built {n_main}-report repository",
            stream::CLUSTERS,
            stream::SIGNATURES
        ),
    );
    let ingest_rate = |kind: &str, row: &str, n: usize| {
        (
            format!("{kind}_{}_reports_per_sec", volume_label(n)),
            Value::from(reports_per_sec(row, n).round()),
        )
    };
    let query = [
        ("top_k", "urr/query/top-k-5"),
        ("failure_groups", "urr/query/failure-groups"),
        ("cluster_rates", "urr/query/cluster-rates"),
        ("first_seen_window", "urr/query/first-seen-window"),
    ];
    doc.set("smoke", smoke)
        .harness_rows(h.results())
        .set(
            "ingest",
            Value::obj([
                ingest_rate("interned", &interned_main, n_main),
                ingest_rate("reference", &reference_main, n_main),
                ingest_rate("interned", &interned_big, n_big),
            ]),
        )
        .set("ingest_speedup_100k_vs_reference", round_to(speedup, 2))
        .set(
            "query",
            Value::obj(query.iter().flat_map(|(key, row)| {
                let r = h.row(row);
                [
                    (format!("{key}_p50_ns"), Value::from(r.p50_ns)),
                    (format!("{key}_p99_ns"), Value::from(r.p99_ns)),
                ]
            })),
        );
    let path = doc.write(ctx.csv(), "BENCH_urr.json");

    // In-binary regression floor: deliberately below the headline the
    // committed BENCH_urr.json carries (the paired min-over-min lands
    // around 5-7x on an idle machine) so a noisy CI runner cannot flake
    // the smoke, while a real regression of the interned fast path —
    // which would drag the ratio toward 1x — still fails loudly.
    let floor = if smoke { 1.0 } else { 2.0 };
    assert!(
        speedup >= floor,
        "interned ingest speedup {speedup:.2}x fell below the {floor}x regression floor; see {}",
        path.display()
    );
}

/// Benchmarks the durable URR storage backend — WAL append throughput,
/// crash-recovery time, and mixed read/write serving — and writes
/// `BENCH_storage.json`.
///
/// The report [`stream`] matches `urr-perf`. Eight measurements plus one
/// scale row:
///
/// * `storage/wal/append-memory-*` / `storage/wal/append-fs-*`: a fresh
///   [`mirage_report::DurableUrr`] per sample (interning untimed)
///   journaling interned 4096-record batches through a
///   [`mirage_report::MemoryStore`] / [`mirage_report::FsStore`] (the
///   fs sample gets its own scratch directory, removed untimed);
/// * `storage/recover/wal-*`: recovery replaying the full WAL with no
///   snapshot — each sample forks the live store into a crash image
///   (untimed) and times [`mirage_report::DurableUrr::recover`];
/// * `storage/recover/snapshot-*`: the same, from a snapshot
///   generation at 90% of the stream plus a WAL tail — the
///   steady-state shape. A generation is the log compacted into fewer
///   frames and goes through the same replay loop, so this row times
///   the same work as the one above, not a faster path;
/// * `storage/serve/freeze-*` / `storage/serve/top-k-5-*`: one thread,
///   one [`mirage_report::Urr::snapshot`] of that repository, and one
///   [`mirage_report::UrrSnapshot::serve`] of a prepared `TopK(5)`
///   frame from it — the two calls the campaign benchmark's
///   `report.snapshot_freeze_s` and `report.serve_s` are made of. A
///   freeze writes only the names that arrived since the last one, so
///   this row re-freezes an unchanged repository;
/// * `storage/serve/freeze-after-batch-*`: one freeze after one fresh
///   4096-record batch (journaled untimed), the freeze the campaign
///   benchmark pays for;
/// * `storage/serve/mixed-read-write-*`: reader threads answering the
///   serialized vendor protocol against a frozen
///   [`mirage_report::UrrSnapshot`] while a writer journals fresh
///   batches through the same `DurableUrr`;
/// * `storage/recover/snapshot-1m`: a single-shot 1M-report recovery
///   (marked `scale`; full runs only).
///
/// Before writing the document, the run recovers each journaled store
/// once and compares every query surface of the recovered repository
/// against the live one — the `recovered_equal` flag the bench gate
/// requires.
fn urr_store_perf(ctx: &Ctx) {
    use std::sync::Arc;

    use mirage_report::{
        DurableConfig, DurableUrr, FsStore, InternedReport, MemoryStore, Urr, UrrRequest,
    };

    let smoke = ctx.smoke;
    suite_heading(
        ctx,
        "Durable URR storage: WAL append, recovery, mixed serving",
    );
    let (n_main, n_big) = stream::volumes(smoke);
    // Manual-snapshot config: the benches place snapshots themselves so
    // each row measures exactly one journal shape.
    let config = || DurableConfig {
        snapshot_every_batches: 0,
        ..DurableConfig::default()
    };
    let build_recs = |urr: &Urr, n: usize| stream::interned(urr, &stream::machine_names(n));
    // Builds a journaled repository of `n` reports over a MemoryStore,
    // optionally compacting into a snapshot once `snapshot_at` reports
    // are in (the rest stays in the WAL tail). Returns the store handle
    // (shared inner: `fork()` yields crash images) and the live layer.
    let build_journal = |n: usize, snapshot_at: Option<usize>| -> (MemoryStore, DurableUrr) {
        let store = MemoryStore::new();
        let handle = store.clone();
        let durable = DurableUrr::new(Box::new(store), config()).expect("memory store");
        let recs = build_recs(durable.urr(), n);
        // The snapshot lands after the first frame that reaches it.
        let snapshot_after = snapshot_at.map(|at| at.div_ceil(4096));
        for (i, chunk) in recs.chunks(4096).enumerate() {
            durable
                .deposit_interned_batch(chunk)
                .expect("journal batch");
            if Some(i + 1) == snapshot_after {
                durable.snapshot_now().expect("write snapshot");
            }
        }
        (handle, durable)
    };
    // Recovers a crash image and checks every query surface against the
    // live repository; feeds the document's `recovered_equal` flag.
    let recovers_equal = |handle: &MemoryStore, durable: &DurableUrr| -> bool {
        let (back, report) =
            DurableUrr::recover(Box::new(handle.fork()), config()).expect("recover");
        let (live, back) = (durable.urr(), back.urr());
        report.torn_tail.is_none()
            && back.next_seq() == live.next_seq()
            && back.stats() == live.stats()
            && back.snapshot() == live.snapshot()
            && back.to_json() == live.to_json()
    };
    // Journals `recs` into `durable` as 4096-record frames (the UrrSink
    // batch); the nanoseconds of exactly that.
    let append_ns = |durable: &DurableUrr, recs: &[InternedReport]| -> u64 {
        let t0 = Instant::now();
        for chunk in recs.chunks(4096) {
            black_box(durable.deposit_interned_batch(chunk).expect("journal"));
        }
        t0.elapsed().as_nanos() as u64
    };
    // Recovers a fresh fork of `handle`'s crash image; the nanoseconds
    // of `recover` alone.
    let recover_ns = |handle: &MemoryStore| -> u64 {
        let image = handle.fork();
        let t0 = Instant::now();
        let (back, report) = DurableUrr::recover(Box::new(image), config()).expect("recover");
        black_box((back.urr().next_seq(), report));
        t0.elapsed().as_nanos() as u64
    };

    let mut h = Harness::new("urr-store-perf");

    // --- WAL append throughput: a fresh journaled repository per
    // sample, interning untimed.
    let append_mem = format!("storage/wal/append-memory-{}", volume_label(n_main));
    h.bench_ns(&append_mem, || {
        let durable = DurableUrr::new(Box::new(MemoryStore::new()), config()).expect("memory");
        let recs = build_recs(durable.urr(), n_main);
        append_ns(&durable, &recs)
    });

    let scratch_root =
        std::env::temp_dir().join(format!("mirage-store-perf-{}", std::process::id()));
    let mut scratch_n = 0usize;
    let append_fs = format!("storage/wal/append-fs-{}", volume_label(n_main));
    h.bench_ns(&append_fs, || {
        scratch_n += 1;
        let dir = scratch_root.join(format!("append-{scratch_n}"));
        let store = FsStore::open(&dir).expect("open fs store");
        let durable = DurableUrr::new(Box::new(store), config()).expect("fs store");
        let recs = build_recs(durable.urr(), n_main);
        let ns = append_ns(&durable, &recs);
        drop(durable);
        std::fs::remove_dir_all(&dir).expect("remove scratch store");
        ns
    });

    // --- Recovery: WAL-only replay, then the steady-state generation +
    // tail shape (one replay loop under both). Each sample recovers a
    // fresh fork of the same crash image.
    let mut recovered_equal = true;
    let (wal_handle, wal_durable) = build_journal(n_main, None);
    recovered_equal &= recovers_equal(&wal_handle, &wal_durable);
    let recover_wal = format!("storage/recover/wal-{}", volume_label(n_main));
    h.bench_ns(&recover_wal, || recover_ns(&wal_handle));

    let (snap_handle, snap_durable) = build_journal(n_main, Some(n_main * 9 / 10));
    recovered_equal &= recovers_equal(&snap_handle, &snap_durable);
    let recover_snap = format!("storage/recover/snapshot-{}", volume_label(n_main));
    h.bench_ns(&recover_snap, || recover_ns(&snap_handle));

    // --- Serving, one thread: what one freeze and one full-size answer
    // cost, before the mixed row's writer grows the repository.
    let mixed_durable = Arc::new(snap_durable);
    let freeze = format!("storage/serve/freeze-{}", volume_label(n_main));
    h.bench(&freeze, || mixed_durable.urr().snapshot());
    let frozen = Arc::new(mixed_durable.urr().snapshot());
    let top_k_frame = UrrRequest::TopK(5).to_frame();
    let top_k = format!("storage/serve/top-k-5-{}", volume_label(n_main));
    h.bench(&top_k, || frozen.serve(&top_k_frame).expect("serve"));

    // The freeze above finds nothing new; the campaign's freezes each
    // follow a batch. Every sample here journals 4096 reports from
    // machines no earlier sample used (untimed), then times the freeze.
    let (_, batch_durable) = build_journal(n_main, None);
    let mut next_machine = n_main;
    let freeze_after_batch = format!("storage/serve/freeze-after-batch-{}", volume_label(n_main));
    h.bench_ns(&freeze_after_batch, || {
        let names: Vec<String> = (next_machine..next_machine + 4096)
            .map(|i| format!("m{i:07}"))
            .collect();
        next_machine += names.len();
        let recs = stream::interned(batch_durable.urr(), &names);
        batch_durable
            .deposit_interned_batch(&recs)
            .expect("journal batch");
        let t0 = Instant::now();
        let snap = black_box(batch_durable.urr().snapshot());
        let ns = t0.elapsed().as_nanos() as u64;
        drop(snap);
        ns
    });
    drop(batch_durable);

    // --- Mixed read/write serving: reader threads answer the binary
    // vendor protocol from a frozen snapshot view while a writer keeps
    // journaling fresh batches into the same repository — the vendor's
    // dashboard-during-campaign shape. Request frames are prepared
    // untimed; each sample times the whole joined region.
    let readers = 4usize;
    let reads_per_thread = if smoke { 300 } else { 2_000 };
    let writer_batches = if smoke { 4 } else { 16 };
    let request_frames: Arc<Vec<Vec<u8>>> = Arc::new(
        [
            UrrRequest::TopK(5),
            UrrRequest::Stats,
            UrrRequest::ClusterRates,
            UrrRequest::ReleaseSummaries,
        ]
        .iter()
        .map(UrrRequest::to_frame)
        .collect(),
    );
    let write_chunk: Arc<Vec<InternedReport>> = Arc::new(build_recs(mixed_durable.urr(), 4_096));
    let mixed = format!("storage/serve/mixed-read-write-{}", volume_label(n_main));
    h.bench(&mixed, || {
        std::thread::scope(|scope| {
            for _ in 0..readers {
                let frozen = Arc::clone(&frozen);
                let frames = Arc::clone(&request_frames);
                scope.spawn(move || {
                    for i in 0..reads_per_thread {
                        let frame = &frames[i % frames.len()];
                        black_box(frozen.serve(frame).expect("serve"));
                    }
                });
            }
            let durable = Arc::clone(&mixed_durable);
            let chunk = Arc::clone(&write_chunk);
            scope.spawn(move || {
                for _ in 0..writer_batches {
                    black_box(durable.deposit_interned_batch(&chunk).expect("journal"));
                }
            });
        });
    });

    // --- Recovery at scale: one deliberate single-shot (full runs only).
    let recovery_1m_ms = if smoke {
        None
    } else {
        let (big_handle, big_durable) = build_journal(n_big, Some(n_big * 9 / 10));
        let image = big_handle.fork();
        let mut recovered = None;
        let ns = h
            .bench_scale(
                &format!("storage/recover/snapshot-{}", volume_label(n_big)),
                || {
                    recovered =
                        Some(DurableUrr::recover(Box::new(image), config()).expect("recover"))
                },
            )
            .min_ns;
        let (back, report) = recovered.expect("scale rows sample exactly once");
        assert!(report.snapshot_loaded, "1M image has a snapshot");
        recovered_equal &= back.urr().next_seq() == big_durable.urr().next_seq()
            && back.urr().stats() == big_durable.urr().stats();
        Some(ns as f64 / 1e6)
    };

    let min_ns = |name: &str| h.row(name).min_ns.max(1);
    let per_sec = |ns: u64, n: usize| n as f64 / (ns as f64 / 1e9);
    let append_mem_rate = per_sec(min_ns(&append_mem), n_main);
    let append_fs_rate = per_sec(min_ns(&append_fs), n_main);
    let mixed_reads = per_sec(min_ns(&mixed), readers * reads_per_thread);
    let mixed_writes = per_sec(min_ns(&mixed), writer_batches * 4_096);
    let recovery_wal_ms = min_ns(&recover_wal) as f64 / 1e6;
    let recovery_snap_ms = min_ns(&recover_snap) as f64 / 1e6;
    let freeze_ms = min_ns(&freeze) as f64 / 1e6;
    let freeze_after_batch_ms = min_ns(&freeze_after_batch) as f64 / 1e6;
    let top_k_us = min_ns(&top_k) as f64 / 1e3;
    println!(
        "=> journaled append: {append_mem_rate:.0}/s memory, {append_fs_rate:.0}/s fs; \
         recovery at {}: {recovery_wal_ms:.1} ms WAL-only, {recovery_snap_ms:.1} ms snapshot+tail",
        volume_label(n_main)
    );
    println!(
        "=> serving at {}: freeze {freeze_ms:.3} ms with nothing new, \
         {freeze_after_batch_ms:.3} ms after a 4096-report batch; one TopK(5) response \
         {top_k_us:.1} us",
        volume_label(n_main)
    );
    println!(
        "=> mixed serving: {mixed_reads:.0} reads/s across {readers} frozen readers \
         against {mixed_writes:.0} journaled writes/s; recovered repository equal to live: \
         {recovered_equal}"
    );

    let mut doc = BenchDoc::new(
        "urr-store-perf",
        format!(
            "{n_main} reports over {} clusters, 10% failures across {} signatures, journaled \
             as interned 4096-record WAL frames; append rows use a fresh repository per sample \
             (interning untimed); recovery rows fork the live MemoryStore into a crash image \
             (untimed) and time DurableUrr::recover, from the WAL alone (wal rows) and from a \
             snapshot generation at 90% of the stream plus the WAL tail (snapshot rows) — a \
             generation is the log compacted into 4096-record frames and replays through the \
             same loop, so the two time the same work and neither is a fast path; the freeze \
             and top-k-5 rows are one Urr::snapshot and one UrrSnapshot::serve of a prepared \
             TopK(5) frame on one thread over the snapshot-row repository (the freeze finds \
             nothing new); the freeze-after-batch row freezes after each fresh 4096-report \
             batch (journaled untimed) of a WAL-row repository, as the campaign does; the mixed \
             row runs {readers} protocol readers on a frozen snapshot against one journaling \
             writer; recovered_equal compares every query surface of a recovered repository \
             to the live one",
            stream::CLUSTERS,
            stream::SIGNATURES
        ),
    );
    // `wal_append_memory` + `100k` + `reports_per_sec`, and the like.
    let key = |what: &str, n: usize, unit: &str| format!("{what}_{}_{unit}", volume_label(n));
    let rate = "reports_per_sec";
    doc.set("smoke", smoke)
        .harness_rows(h.results())
        .set(
            &key("wal_append_memory", n_main, rate),
            append_mem_rate.round(),
        )
        .set(&key("wal_append_fs", n_main, rate), append_fs_rate.round())
        .set(&key("freeze", n_main, "ms"), round_to(freeze_ms, 3))
        .set(
            &key("freeze_after_batch", n_main, "ms"),
            round_to(freeze_after_batch_ms, 3),
        )
        .set(&key("serve_top_k_5", n_main, "us"), round_to(top_k_us, 1))
        .set("mixed_readers", readers)
        .set("mixed_reads_per_sec", mixed_reads.round())
        .set("mixed_writes_per_sec", mixed_writes.round())
        .set(
            &key("recovery_wal", n_main, "ms"),
            round_to(recovery_wal_ms, 2),
        )
        .set(
            &key("recovery_snapshot", n_main, "ms"),
            round_to(recovery_snap_ms, 2),
        );
    if let Some(ms) = recovery_1m_ms {
        doc.set(&key("recovery_snapshot", n_big, "ms"), round_to(ms, 2));
    }
    doc.set("recovered_equal", recovered_equal);
    let path = doc.write(ctx.csv(), "BENCH_storage.json");
    let _ = std::fs::remove_dir_all(&scratch_root);

    // Hard invariant regardless of volume: a recovery that loses or
    // invents reports is a broken journal, not a slow one.
    assert!(
        recovered_equal,
        "recovered repository diverged from the live one; see {}",
        path.display()
    );
    // In-binary regression floors, deliberately far below the committed
    // headline so a noisy CI runner cannot flake the smoke while a real
    // collapse of the journaled path still fails loudly.
    if !smoke {
        assert!(
            append_mem_rate >= 50_000.0,
            "journaled in-memory append fell below 50k reports/s ({append_mem_rate:.0}/s)"
        );
        assert!(
            recovery_snap_ms <= 10_000.0,
            "snapshot+tail recovery at {} took {recovery_snap_ms:.0} ms (> 10 s)",
            volume_label(n_main)
        );
    }
}

/// Measures the sim-time journal's overhead on the paper's 100k-machine
/// Figure-10 scenario and writes `BENCH_trace.json` plus a
/// Perfetto-loadable Chrome `trace_event` document (`mirage-trace.json`).
///
/// Two harness rows: `trace/plain-run` (the uninstrumented Balanced
/// run) and `trace/journaled-run` (the same run with a journal-enabled
/// registry attached to both driver and protocol, full timeline spilled
/// so nothing is dropped). The headline `overhead_pct` is the paired
/// min-over-min difference; the non-smoke run asserts it stays under
/// 15%. The exported trace renders deployment waves as async slices
/// and a bounded sample of machines as named tracks.
fn trace(ctx: &Ctx) {
    use std::sync::Arc;

    use mirage_deploy::{MachineId, ProblemId};
    use mirage_telemetry::trace_export::chrome_trace;
    use mirage_telemetry::{Journal, Registry, Telemetry, TraceConfig};

    let smoke = ctx.smoke;
    suite_heading(ctx, "Trace: journal overhead + Perfetto export");

    let scenario = if smoke {
        late_problem_fleet(smoke).build()
    } else {
        deployment::sound_scenario(deployment::ProblemPlacement::Late)
    };
    let machines = scenario.machine_count();

    // Paired overhead benchmark: the journaled closure attaches a bare
    // `Journal` as the recorder (no registry, no counters, no spans),
    // so the delta is the journal's own cost — the clock stores,
    // every record call, and the spill. The journal is reused across
    // samples (reset keeps its allocations warm) so one-time page
    // faults don't masquerade as per-run overhead.
    let mut h = Harness::new("trace-overhead");
    let bench_journal = Arc::new(Journal::with_spill(1 << 16));
    // Interleaved sampling: sequential rows would charge clock drift
    // (turbo decay, neighbours) entirely to the journaled run and
    // inflate the overhead ratio by tens of percent.
    h.bench_paired(
        "trace/plain-run",
        "trace/journaled-run",
        || {
            Simulation::new(&scenario)
                .run(&mut ProtocolChoice::Balanced.build(scenario.plan.clone(), 1.0))
                .failed_tests
        },
        || {
            bench_journal.reset();
            let telemetry = Telemetry::from_recorder(Arc::clone(&bench_journal) as _);
            let mut protocol = ProtocolChoice::Balanced
                .build(scenario.plan.clone(), 1.0)
                .with_telemetry(telemetry.clone());
            Simulation::new(&scenario)
                .with_telemetry(telemetry)
                .run(&mut protocol)
                .failed_tests
        },
    );
    let plain = h.row("trace/plain-run");
    let journaled = h.row("trace/journaled-run");
    let overhead_pct =
        (journaled.min_ns as f64 - plain.min_ns as f64) / plain.min_ns.max(1) as f64 * 100.0;
    println!("=> journaling overhead: {overhead_pct:.1}% (paired min-over-min)");

    // One retained journaled run feeds the Perfetto export.
    let registry = Arc::new(Registry::with_journal(1024, Journal::with_spill(1 << 16)));
    let telemetry = Telemetry::from_registry(Arc::clone(&registry));
    let mut protocol = ProtocolChoice::Balanced
        .build(scenario.plan.clone(), 1.0)
        .with_telemetry(telemetry.clone());
    let metrics = Simulation::new(&scenario)
        .with_telemetry(telemetry)
        .run(&mut protocol);
    let journal = registry.journal();
    let entries = journal.entries();
    let run_end = metrics.completion_time.unwrap_or_else(|| journal.now());
    let exported = chrome_trace(
        &entries,
        run_end,
        &|m| scenario.plan.machine_name(MachineId(m)).to_string(),
        &|p| scenario.problems.name(ProblemId(p)).to_string(),
        &TraceConfig::default(),
    );
    let events = exported
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    println!(
        "  {} trace events over {} journal entries",
        events.len(),
        journal.total()
    );
    write_document(ctx.csv(), "mirage-trace.json", exported.to_compact());

    // BENCH_trace.json: harness rows, the overhead headline, journal
    // accounting, and the head of the trace for schema validation.
    let mut doc = BenchDoc::new(
        "trace-overhead",
        format!(
            "{machines} machines under Balanced; journaled = driver + protocol attach a \
             bare spilling Journal recorder (full timeline retained, nothing dropped); \
             samples interleaved plain/journaled so clock drift cancels; overhead_pct = \
             paired min-over-min; trace_sample = first 24 Chrome trace_event records of \
             the exported Perfetto document"
        ),
    );
    doc.set("smoke", smoke)
        .set("machines", machines)
        .harness_rows(h.results())
        .set("overhead_pct", round_to(overhead_pct, 2))
        .set("journal_total", journal.total())
        .set("journal_dropped", journal.dropped())
        .set("trace_events", events.len())
        .set("trace_sample", Value::arr(events.iter().take(24).cloned()));
    let path = doc.write(ctx.csv(), "BENCH_trace.json");

    // In-binary regression gate: the acceptance bound, full fleet only
    // (debug smoke builds are noise-dominated).
    if !smoke {
        assert!(
            overhead_pct < 15.0,
            "journaling overhead {overhead_pct:.1}% exceeds the 15% budget; see {}",
            path.display()
        );
    }
}

/// Runs the paper's staged deployment under 30% message loss with a
/// journal attached, folds the journal into per-wave health frames, and
/// writes `mirage-health.json`.
///
/// The printed table is the watchdog's verdict per wave: convergence
/// lag percentiles, failure rate, retry amplification, and the
/// `healthy`/`degraded`/`unhealthy` classification. Under this much
/// loss the retry machinery works overtime, so the run asserts that at
/// least one wave is flagged degraded or worse — the watchdog must
/// *notice* a degraded channel.
fn health(ctx: &Ctx) {
    use std::sync::Arc;

    use mirage_sim::FaultSpec;
    use mirage_telemetry::health::{health_report_json, rollup};
    use mirage_telemetry::{HealthStatus, Journal, Registry, Telemetry, WatchdogConfig};

    suite_heading(ctx, "Health: per-wave rollup under 30% message loss");

    let spec = FaultSpec::new(0x4EA1)
        .loss(0.30)
        .duplication(0.15)
        .delay(10)
        .retry(20, 4)
        .rep_timeout(4_000);
    let scenario = late_problem_fleet(ctx.smoke).faults(spec).build();

    let registry = Arc::new(Registry::with_journal(1024, Journal::with_spill(1 << 16)));
    let telemetry = Telemetry::from_registry(Arc::clone(&registry));
    let mut protocol = ProtocolChoice::Balanced
        .build(scenario.plan.clone(), 1.0)
        .with_telemetry(telemetry.clone());
    let metrics = Simulation::new(&scenario)
        .with_telemetry(telemetry)
        .run(&mut protocol);
    println!(
        "  run: passed {}/{}, completion {:?}, retries {}, dropped {}",
        metrics.passed_count(),
        scenario.machine_count(),
        metrics.completion_time,
        metrics.retries_sent,
        metrics.msgs_dropped
    );

    let journal = registry.journal();
    let entries = journal.entries();
    let mut machine_cluster = vec![0u32; scenario.machine_count()];
    for cluster in &scenario.plan.clusters {
        for m in &cluster.members {
            machine_cluster[m.index()] = cluster.id as u32;
        }
    }
    let run_end = metrics.completion_time.unwrap_or_else(|| journal.now());
    let frames = rollup(
        &entries,
        &machine_cluster,
        run_end,
        &WatchdogConfig::default(),
    );

    println!(
        "\n  {:<5} {:<8} {:>8} {:>8} {:>9} {:>7} {:>7} {:>7} {:>8} {:>8} {:>10}",
        "wave",
        "cluster",
        "start",
        "end",
        "notified",
        "fail%",
        "retryx",
        "waived",
        "lag p50",
        "lag p99",
        "status"
    );
    for f in &frames {
        println!(
            "  {:<5} {:<8} {:>8} {:>8} {:>9} {:>7.2} {:>7.2} {:>7} {:>8} {:>8} {:>10}",
            f.wave,
            f.cluster.map_or("-".to_string(), |c| c.to_string()),
            f.start,
            f.end,
            f.notified,
            f.failure_rate * 100.0,
            f.retry_amplification,
            f.waivers,
            f.lag_p50,
            f.lag_p99,
            f.status.name()
        );
    }
    let flagged = frames
        .iter()
        .filter(|f| f.status >= HealthStatus::Degraded)
        .count();
    println!(
        "=> watchdog flagged {flagged} of {} waves degraded or worse under 30% loss",
        frames.len()
    );
    write_document(
        ctx.csv(),
        "mirage-health.json",
        health_report_json(&frames).to_pretty(),
    );

    assert!(
        flagged >= 1,
        "the watchdog flagged no waves under 30% message loss"
    );
}

/// Sweeps the fault injector's message-loss rate from 0% to 30% (with
/// duplication at half the loss rate and ±10-tick delivery delay) over
/// all three protocols on the paper's 100k-machine Figure-10 scenario,
/// and writes `BENCH_faults.json`.
///
/// Every run enables the vendor-side hardening (timed re-notification
/// with exponential backoff, timeout-based stage advancement), so the
/// sweep answers: *does staged deployment still converge, and at what
/// latency/overhead cost, when the channel degrades?*
fn fault_sweep(ctx: &Ctx) {
    use mirage_sim::FaultSpec;

    heading("Fault sweep: convergence vs message-loss rate");

    let protocols = [
        ProtocolChoice::NoStaging,
        ProtocolChoice::Balanced,
        ProtocolChoice::FrontLoading,
    ];
    let loss_pcts: &[u32] = &[0, 5, 10, 15, 20, 25, 30];
    let mut rows: Vec<Value> = Vec::new();
    let mut converged_everywhere = true;

    for &loss_pct in loss_pcts {
        let loss = loss_pct as f64 / 100.0;
        // Deterministic per-cell seed so the sweep replays exactly.
        let spec = FaultSpec::new(0xFA17_0000 + loss_pct as u64)
            .loss(loss)
            .duplication(loss / 2.0)
            .delay(10)
            .rep_timeout(4_000);
        let scenario = late_problem_fleet(false).faults(spec).build();
        let total = scenario.machine_count();
        for choice in protocols {
            let protocol = choice.name();
            let m = Simulation::new(&scenario)
                .run(&mut choice.build(scenario.plan.clone(), scenario.threshold));
            let converged = m.passed_count() == total;
            converged_everywhere &= converged;
            println!(
                "  loss {loss_pct:>2}%  {protocol:<12}  passed {:>6}/{total}  completion {:?}  \
                 retries {}  dropped {}  waived {}",
                m.passed_count(),
                m.completion_time,
                m.retries_sent,
                m.msgs_dropped,
                m.rep_timeouts,
            );
            rows.push(Value::obj([
                ("protocol", Value::str(protocol)),
                ("loss_pct", Value::from(loss_pct)),
                ("converged", Value::from(converged)),
                ("completion_time", optional(m.completion_time)),
                ("failed_tests", Value::from(m.failed_tests)),
                ("msgs_dropped", Value::from(m.msgs_dropped)),
                ("retries_sent", Value::from(m.retries_sent)),
                ("rep_timeouts", Value::from(m.rep_timeouts)),
            ]));
        }
    }

    let (clusters, size) = fleet_dims(false);
    let mut doc = BenchDoc::new(
        "fault-sweep",
        format!(
            "{} machines ({clusters}x{size}), problems placed late; duplication = loss/2, \
             delay uniform 0..=10, rep_timeout 4000, seeded per cell",
            clusters * size
        ),
    );
    doc.grid_rows(rows);
    let path = doc.write(ctx.csv(), "BENCH_faults.json");
    assert!(
        converged_everywhere,
        "fault sweep found non-converging runs; see {}",
        path.display()
    );
    println!("=> all protocols converged to 100% under every loss rate up to 30%");
}

/// A sim time that may not have been reached, as a number or `null`.
fn optional(time: Option<u64>) -> Value {
    time.map_or(Value::Null, Value::from)
}

/// Runs the guarded strategy × message-loss × release-quality rollback
/// grid and writes `BENCH_rollback.json`.
///
/// Every cell drives the rollout controller end-to-end with a URR
/// guard wired in. A *good* release must converge under every strategy
/// and loss rate without tripping the guard (no false positives); a
/// *bad* release — the same regression seeded into every cluster —
/// must be contained: aborted with exposure inside the first-cohort
/// limit, or (classic staging) held at the representatives until the
/// vendor fix lands. The committed document is the evidence behind the
/// containment claim in EXPERIMENTS.md, so the run asserts it.
fn rollback_sweep(ctx: &Ctx) {
    use std::sync::Arc;

    use mirage_core::{GuardSettings, RolloutPlan, RolloutStrategy};
    use mirage_report::Urr;
    use mirage_sim::FaultSpec;
    use mirage_telemetry::Telemetry;

    heading("Rollback sweep: guarded strategies vs a fleet-wide regression");

    let (clusters, size) = fleet_dims(false);
    let machines = clusters * size;
    let loss_pcts: &[u32] = &[0, 10, 20, 30];
    let strategies = [
        RolloutStrategy::Staged { waves: 4 },
        RolloutStrategy::Canary {
            percentage: 1.0,
            bake_time: 100,
        },
        RolloutStrategy::Rolling {
            batch_size: machines / 10,
        },
        RolloutStrategy::BlueGreen,
    ];
    // The population floor catches the wide-but-shallow shape: a
    // fleet-wide signature failing one representative per cluster
    // (blue/green's first cohort) never reaches `min_reports` in any
    // single cluster, but its deduplicated population gives it away.
    let guard = GuardSettings {
        max_cluster_failure_rate: 0.3,
        max_failure_population: (clusters / 2).max(2),
        min_reports: 5,
        unhealthy_ticks: 2,
        healthy_ticks: 1,
    };

    let mut rows: Vec<Value> = Vec::new();
    // Good releases converge untouched; bad ones are contained — rolled
    // back inside the first-cohort limit or converged through the
    // vendor fix — and a guarded canary aborts every one of them.
    let (mut good_converged, mut bad_contained, mut canary_aborted) = (true, true, true);

    for &loss_pct in loss_pcts {
        let loss = loss_pct as f64 / 100.0;
        for (si, &strategy) in strategies.iter().enumerate() {
            for (bi, release) in ["good", "bad"].into_iter().enumerate() {
                // Deterministic per-cell seed so the sweep replays
                // exactly.
                let seed = 0xB0BA_C000 + (loss_pct as u64) * 16 + (si as u64) * 2 + bi as u64;
                let spec = FaultSpec::new(seed)
                    .loss(loss)
                    .duplication(loss / 2.0)
                    .delay(10);
                let urr = Arc::new(Urr::new());
                let mut builder = ScenarioBuilder::new()
                    .clusters(clusters, size, 1)
                    .faults(spec)
                    .with_urr(Arc::clone(&urr))
                    .with_strategy(strategy)
                    .with_guard(guard);
                if release == "bad" {
                    let everywhere: Vec<usize> = (0..clusters).collect();
                    builder = builder.problem_in_clusters("fleet-regression", &everywhere);
                }
                let scenario = builder.build();
                let exposure_limit =
                    RolloutPlan::new(scenario.plan.clone(), strategy).exposure_limit();
                let mut controller =
                    scenario.rollout_controller(ProtocolChoice::Balanced, Telemetry::noop());
                let m = Simulation::new(&scenario).run(&mut controller);
                let outcome = controller.outcome();
                let converged = m.converged(machines);
                let rolled_back = outcome.rollback.is_some();
                let exposed = outcome.rollback.map_or(0, |info| info.exposed_machines);
                println!(
                    "  loss {loss_pct:>2}%  {:<10}  {release:<4}  {:<11}  \
                     exposed {exposed:>6}/{exposure_limit:<6}  completion {:?}",
                    strategy.name(),
                    if rolled_back {
                        "ROLLED BACK"
                    } else if converged {
                        "converged"
                    } else {
                        "STUCK"
                    },
                    m.completion_time,
                );
                if release == "good" {
                    good_converged &= converged && !rolled_back;
                } else {
                    bad_contained &= if rolled_back {
                        exposed <= exposure_limit
                    } else {
                        converged
                    };
                    if matches!(strategy, RolloutStrategy::Canary { .. }) {
                        canary_aborted &= rolled_back;
                    }
                }
                rows.push(Value::obj([
                    ("strategy", Value::str(strategy.name())),
                    ("loss_pct", Value::from(loss_pct)),
                    ("release", Value::str(release)),
                    ("machines", Value::from(machines)),
                    ("converged", Value::from(converged)),
                    ("rolled_back", Value::from(rolled_back)),
                    ("exposed", Value::from(exposed)),
                    ("exposure_limit", Value::from(exposure_limit)),
                    ("completion_time", optional(m.completion_time)),
                ]));
            }
        }
    }

    let mut doc = BenchDoc::new(
        "rollback-sweep",
        format!(
            "{machines} machines ({clusters}x{size}); bad = one regression seeded into every \
             cluster; guard rate 0.3, population {}, min_reports 5, hysteresis 2/1; \
             duplication = loss/2, delay uniform 0..=10, seeded per cell",
            guard.max_failure_population
        ),
    );
    doc.set("machines", machines).grid_rows(rows);
    let path = doc.write(ctx.csv(), "BENCH_rollback.json");
    assert!(
        good_converged,
        "a good release failed to converge (or was aborted); see {}",
        path.display()
    );
    assert!(
        bad_contained,
        "a bad release escaped containment; see {}",
        path.display()
    );
    assert!(
        canary_aborted,
        "a guarded canary failed to abort a bad release; see {}",
        path.display()
    );
    println!(
        "=> good releases: all converged, no false-positive aborts; \
         bad releases: all contained (canary aborted every one)"
    );
}

/// Runs a protocol × threshold × message-loss grid through the
/// simulator, every cell reusing one [`mirage_sim::SimArena`], and
/// writes `BENCH_sweep.json`.
///
/// This is the sweep workload the arena exists for: dozens of
/// simulator runs back to back, where per-run queue and scratch
/// allocation would otherwise dominate the small cells. The grid
/// covers the three staged protocols at thresholds 1.0 and 0.9 under
/// 0/10/20% message loss (duplication at half the loss rate, ±10-tick
/// delay, vendor hardening on, seeded per cell so the sweep replays
/// exactly).
///
/// Every cell must converge to a full fleet pass; the run exits
/// non-zero otherwise.
fn sweep(ctx: &Ctx) {
    use mirage_sim::{FaultSpec, SimArena};

    heading("Sweep: protocol x threshold x loss grid, shared arena");

    let protocols = [
        ProtocolChoice::NoStaging,
        ProtocolChoice::Balanced,
        ProtocolChoice::FrontLoading,
    ];
    let thresholds: &[f64] = &[1.0, 0.9];
    let loss_pcts: &[u32] = &[0, 10, 20];

    let mut cells: Vec<Value> = Vec::new();
    let mut converged_everywhere = true;
    let mut arena = SimArena::new();
    let sweep_started = Instant::now();

    for &loss_pct in loss_pcts {
        // One scenario per loss rate, shared by every protocol and
        // threshold cell at that rate.
        let mut builder = late_problem_fleet(false);
        if loss_pct > 0 {
            let loss = f64::from(loss_pct) / 100.0;
            builder = builder.faults(
                FaultSpec::new(0x5EE9_0000 + u64::from(loss_pct))
                    .loss(loss)
                    .duplication(loss / 2.0)
                    .delay(10)
                    .rep_timeout(4_000),
            );
        }
        let scenario = builder.build();
        let total = scenario.machine_count();
        for &threshold in thresholds {
            for choice in protocols {
                let mut protocol = choice.build(scenario.plan.clone(), threshold);
                let t0 = Instant::now();
                let m = Simulation::new(&scenario)
                    .arena(&mut arena)
                    .run(&mut protocol);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let converged = m.passed_count() == total;
                converged_everywhere &= converged;
                println!(
                    "  loss {loss_pct:>2}%  thr {threshold:.1}  {:<12}  passed {:>6}/{total}  \
                     completion {:?}  failed {}  escaped {}  ({ms:.1} ms)",
                    choice.name(),
                    m.passed_count(),
                    m.completion_time,
                    m.failed_tests,
                    m.escaped_problems,
                );
                cells.push(Value::obj([
                    ("protocol", Value::str(choice.name())),
                    ("threshold", Value::from(threshold)),
                    ("loss_pct", Value::from(loss_pct)),
                    ("converged", Value::from(converged)),
                    ("completion_time", optional(m.completion_time)),
                    ("failed_tests", Value::from(m.failed_tests)),
                    ("escaped", Value::from(m.escaped_problems)),
                ]));
            }
        }
    }

    let (clusters, size) = fleet_dims(false);
    let cell_count = cells.len();
    let mut doc = BenchDoc::new(
        "sim-sweep",
        format!(
            "{} machines ({clusters}x{size}), problems placed late; grid = protocol x threshold x loss with \
             duplication = loss/2, delay uniform 0..=10, rep_timeout 4000, seeded per loss \
             rate; every cell runs in one shared SimArena",
            clusters * size
        ),
    );
    doc.grid_rows(cells);
    let path = doc.write(ctx.csv(), "BENCH_sweep.json");
    assert!(
        converged_everywhere,
        "sweep found non-converging cells; see {}",
        path.display()
    );
    println!(
        "=> {cell_count} cells in {:.2} s on one arena: \
         all converged to a full fleet pass",
        sweep_started.elapsed().as_secs_f64(),
    );
}

/// Benchmarks the deployment simulator's hot path and writes
/// `BENCH_sim.json`.
///
/// Workloads:
///
/// * the paper's 100k-machine Figure-10 scenario, *interned* driver vs
///   the retained *string-keyed reference* driver, paired per protocol
///   (NoStaging / Balanced / FrontLoading) so clock drift lands on both
///   sides equally;
/// * a 1,000,000-machine variant (100 clusters × 10 000) on the
///   interned driver, per protocol;
/// * one single-shot `scale` row: 10M machines (1000×10 000), Balanced —
///   the acceptance workload for the sub-10 s budget.
///
/// Before timing anything, the reference driver and the sequential
/// oracle are asserted bit-identical to the driver on the 100k scenario
/// (the same properties the seeded proptests check on random
/// scenarios).
fn sim_perf(ctx: &Ctx) {
    use mirage_sim::runner::reference::{run_reference, NamedScenario};
    use mirage_sim::runner::sequential::run_sequential;
    use mirage_sim::{Scenario, SimArena};
    use mirage_telemetry::Telemetry;

    heading("Simulator performance (interned vs reference)");

    let s100k = deployment::sound_scenario(deployment::ProblemPlacement::Late);
    let named = NamedScenario::from_scenario(&s100k);
    // 1M machines, problems placed late like the Figure-10 setup.
    let s1m = ScenarioBuilder::new()
        .clusters(100, 10_000, 1)
        .problem_in_clusters(deployment::PREVALENT, &[75, 80, 85])
        .problem_in_clusters(deployment::RARE_A, &[90])
        .problem_in_clusters(deployment::RARE_B, &[95])
        .build();

    let choices = [
        ProtocolChoice::NoStaging,
        ProtocolChoice::Balanced,
        ProtocolChoice::FrontLoading,
    ];
    // Both planes from the one selection surface; construction stays
    // inside every timed closure below.
    let fast = |choice: ProtocolChoice, s: &Scenario| {
        Simulation::new(s).run(&mut choice.build(s.plan.clone(), 1.0))
    };
    let slow = |choice: ProtocolChoice| {
        run_reference(&named, &mut choice.build_named(named.plan.clone(), 1.0))
    };

    // Sanity: the drivers agree on the full 100k scenario before any
    // timing (same equivalences the seeded proptests establish).
    for choice in choices {
        let got = fast(choice, &s100k);
        assert_eq!(
            got,
            slow(choice),
            "{}: reference diverged on the 100k scenario",
            choice.name()
        );
        let mut oracle = choice.build(s100k.plan.clone(), 1.0);
        assert_eq!(
            got,
            run_sequential(&s100k, Telemetry::noop(), &mut oracle),
            "{}: sequential oracle diverged on the 100k scenario",
            choice.name()
        );
    }
    println!("  (reference driver and sequential oracle bit-identical on 100k)\n");

    let mut h = Harness::new("sim-perf");
    for choice in choices {
        let name = choice.name();
        h.bench_paired(
            &format!("sim/100k/interned/{name}"),
            &format!("sim/100k/reference/{name}"),
            || fast(choice, &s100k).failed_tests,
            || slow(choice).failed_tests,
        );
    }
    for choice in choices {
        h.bench(&format!("sim/1m/interned/{}", choice.name()), || {
            fast(choice, &s1m).failed_tests
        });
    }

    // The 10M acceptance workload: one honest sample (construction
    // untimed), marked `scale` so bench-check knows the single sample
    // is intentional.
    let s10m = ScenarioBuilder::new()
        .clusters(1_000, 10_000, 1)
        .problem_in_clusters(deployment::PREVALENT, &[750, 800, 850])
        .problem_in_clusters(deployment::RARE_A, &[900])
        .problem_in_clusters(deployment::RARE_B, &[950])
        .build();
    let mut arena10 = SimArena::new();
    let mut proto10 = ProtocolChoice::Balanced.build(s10m.plan.clone(), 1.0);
    h.bench_scale("sim/10m/interned/Balanced", || {
        Simulation::new(&s10m)
            .arena(&mut arena10)
            .run(&mut proto10)
            .failed_tests
    });

    let mut speedups = Vec::new();
    for name in choices.map(ProtocolChoice::name) {
        let speedup = h.speedup(
            &format!("sim/100k/reference/{name}"),
            &format!("sim/100k/interned/{name}"),
        );
        println!("=> {name}: 100k interned is {speedup:.2}x the string reference (min-over-min)");
        speedups.push((name, Value::from(round_to(speedup, 2))));
    }
    let b1m_secs = h.row("sim/1m/interned/Balanced").min_ns as f64 / 1e9;
    println!("=> 1M-machine Balanced run: {b1m_secs:.2} s (min)");
    let b10m_secs = h.row("sim/10m/interned/Balanced").min_ns as f64 / 1e9;
    println!("=> 10M-machine Balanced run: {b10m_secs:.2} s (single scale sample)");

    let mut doc = BenchDoc::new(
        "sim-perf",
        "100k = the paper's Figure-10 scenario (20x5000, problems late); 1m = 100x10000, \
         10m = 1000x10000 with the same late placement; reference = the retained string-keyed \
         BinaryHeap driver + protocols; interned and reference rows time plan clone + protocol \
         construction + run (the interned clone shares the plan's machine table and copies \
         cluster id vectors only; the reference clone copies every name); the 10m row times \
         the run only, in a SimArena, and is intentionally single-sample",
    );
    doc.harness_rows(h.results())
        .set("speedup_100k_vs_reference", Value::obj(speedups))
        .set("balanced_1m_seconds", round_to(b1m_secs, 3))
        .set("balanced_1m_under_10s", b1m_secs < 10.0)
        .set("balanced_10m_seconds", round_to(b10m_secs, 3))
        .set("balanced_10m_under_10s", b10m_secs < 10.0);
    doc.write(ctx.csv(), "BENCH_sim.json");
}

/// Benchmarks the clustering hot path (dense fleets, one original
/// cluster each, diameter 2, and the replicated Table 2 MySQL fleet,
/// diameter 3) and writes `BENCH_clustering.json`.
///
/// The MySQL rows are the campaign benchmark's `plan_mysql` shape —
/// every machine of the paper's fleet copied 40× and 80× — and their
/// ratio is the measured growth exponent: 4 is quadratic, and
/// `bench-check` fails the committed document above 6.
///
/// Alongside the fast-path numbers, the retained pre-PR naive QT loop
/// ([`mirage_cluster::qt_cluster_indices_reference`]) is benchmarked on
/// the dense-200 fleet, so the emitted JSON carries a live speedup
/// figure rather than a stale hardcoded baseline.
fn clustering_perf(ctx: &Ctx) {
    use mirage_cluster::{qt_cluster_indices_reference, ClusterEngine, MachineInfo};
    use mirage_fingerprint::{DiffSet, Item};

    heading("Clustering performance (hot-path benchmark)");

    /// A population whose parsed diffs split machines into `groups`
    /// original clusters and whose content items are per-machine noise
    /// (worst case for phase 2).
    fn population(n: usize, groups: usize) -> Vec<MachineInfo> {
        (0..n)
            .map(|i| {
                let mut diff = DiffSet::empty(format!("m{i:05}"));
                diff.parsed
                    .insert(Item::new(["group", &(i % groups).to_string()]));
                diff.content
                    .insert(Item::new(["noise", &(i / 3).to_string()]));
                MachineInfo::new(diff)
            })
            .collect()
    }

    let mut h = Harness::new("clustering-perf");
    let engine = ClusterEngine::new(2);
    for &n in &[200usize, 500, 1000, 2000] {
        let dense = population(n, 1);
        h.bench(&format!("clustering/scaling/dense-{n}"), || {
            engine.cluster(&dense).len()
        });
    }
    let spread = population(1000, 200);
    h.bench("clustering/scaling/spread-1000", || {
        engine.cluster(&spread).len()
    });
    let table2 = mirage_scenarios::mysql::MySqlScenario::with_full_parsers();
    let mysql_engine = ClusterEngine::new(table2.vendor.diameter);
    let originals = table2.fleet_inputs();
    for &replicas in &[40usize, 80] {
        let fleet: Vec<MachineInfo> = (0..replicas)
            .flat_map(|replica| {
                originals.iter().map(move |m| {
                    let mut copy = m.clone();
                    copy.diff.machine = format!("{}#{replica:02}", m.id());
                    copy
                })
            })
            .collect();
        h.bench(&format!("clustering/scaling/mysql-x{replicas}"), || {
            mysql_engine.cluster(&fleet).len()
        });
    }
    // The pre-PR naive phase-2 loop on the same dense-200 fleet.
    let dense200 = population(200, 1);
    let refs: Vec<&MachineInfo> = dense200.iter().collect();
    h.bench("clustering/scaling/dense-200-reference-qt", || {
        qt_cluster_indices_reference(&refs, 2).len()
    });

    let speedup = h.speedup(
        "clustering/scaling/dense-200-reference-qt",
        "clustering/scaling/dense-200",
    );
    let growth = h.speedup(
        "clustering/scaling/mysql-x80",
        "clustering/scaling/mysql-x40",
    );
    let mut doc = BenchDoc::new(
        "clustering-perf",
        "dense-N = one original cluster of N machines, diameter 2; mysql-xR = the paper's \
         Table 2 MySQL fleet (21 machines, diameter 3) copied R times; dense-200-reference-qt \
         = the retained pre-PR naive QT loop on the same fleet",
    );
    doc.harness_rows(h.results())
        .set("dense_200_speedup_vs_reference", round_to(speedup, 2))
        .set("mysql_x80_over_x40", round_to(growth, 2));
    println!("=> dense-200 fast path is {speedup:.2}x the naive reference (min-over-min)");
    println!("=> mysql-x80 costs {growth:.2}x mysql-x40 (min-over-min; quadratic is 4)");
    doc.write(ctx.csv(), "BENCH_clustering.json");
}

/// Runs an instrumented deployment simulation plus a full instrumented
/// Apache ACL campaign and writes the combined registry snapshot (span
/// timings, counters, gauges, per-kind journal counts) as JSON to the
/// `--telemetry` path.
///
/// Both runs journal into one bounded ring, each on a clock that starts
/// at 0: the simulation's entries are stamped on its clock, the
/// campaign's on its drive's decision ticks. The ring therefore holds
/// two timelines, so only the per-kind counts are exported; they are
/// exact whatever the ring evicted.
fn telemetry_dump(ctx: &Ctx) {
    use std::sync::Arc;

    use mirage_core::{Campaign, RolloutStrategy};
    use mirage_env::RunInput;
    use mirage_scenarios::apache::ApacheScenario;
    use mirage_telemetry::{Registry, Telemetry};

    let Some(path) = ctx.telemetry.as_deref() else {
        // `all` includes the dump only when a path was given.
        assert!(
            ctx.all,
            "the telemetry experiment requires --telemetry <path>"
        );
        return;
    };
    heading("Telemetry: instrumented simulation + Apache ACL campaign");
    let registry = Arc::new(Registry::new(8192));
    let telemetry = Telemetry::from_registry(Arc::clone(&registry));

    // 1. The paper's 100k-machine deployment simulation under Balanced.
    let sim_scenario = deployment::sound_scenario(deployment::ProblemPlacement::Late);
    let mut protocol = ProtocolChoice::Balanced
        .build(sim_scenario.plan.clone(), 1.0)
        .with_telemetry(telemetry.clone());
    let metrics = Simulation::new(&sim_scenario)
        .with_telemetry(telemetry.clone())
        .run(&mut protocol);
    println!(
        "  sim: overhead {}, completion {:?}",
        metrics.failed_tests, metrics.completion_time
    );

    // 2. The full Apache ACL campaign (§4.2 world, real validation).
    let scenario = ApacheScenario::new();
    let upgrade = scenario.upgrade.clone();
    let mut campaign =
        Campaign::new(scenario.vendor, scenario.agents).with_telemetry(telemetry.clone());
    let classification = campaign
        .vendor
        .classify_reference("apache", &[RunInput::new("a"), RunInput::new("b")]);
    let reference = campaign.vendor.reference_fingerprint(&classification);
    let (_, plan) = campaign.rollout_plan(
        "apache",
        &reference,
        1,
        RolloutStrategy::Staged { waves: 1 },
    );
    let result = campaign.drive(upgrade, &plan, ProtocolChoice::Balanced, 1.0);
    println!(
        "  campaign: converged {}, rounds {}, releases {}, failed validations {}",
        result.converged(8),
        result.rounds,
        result.releases.len(),
        result.failed_validations
    );

    let snap = registry.snapshot();
    std::fs::write(path, snap.to_json()).expect("write telemetry snapshot");
    println!(
        "  wrote {} ({} counters, {} span paths, {} gauges, {} journal entries)",
        path.display(),
        snap.counters.len(),
        snap.spans.len(),
        snap.gauges.len(),
        snap.journal_total
    );
}

fn fig1(ctx: &Ctx) {
    heading("Figure 1: Upgrade frequencies (by experience)");
    let rows = survey::dataset();
    let fig = survey::figure1(&rows);
    let table: Vec<Vec<String>> = fig
        .iter()
        .map(|(freq, per_exp)| {
            let total: usize = per_exp.iter().sum();
            vec![
                freq.label().to_string(),
                per_exp[0].to_string(),
                per_exp[1].to_string(),
                per_exp[2].to_string(),
                per_exp[3].to_string(),
                format!("{total:>2} {}", bar(total, 20)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Upgrade frequency",
                "0-2y",
                "2-5y",
                "5-10y",
                ">10y",
                "Total"
            ],
            &table
        )
    );
    let stats = survey::stats(&rows);
    println!(
        "=> {:.0}% of administrators upgrade once a month or more (paper: 90%)",
        stats.monthly_or_more * 100.0
    );
    let (security, bug_fix, user_request, new_feature) = survey::reason_rank_averages(&rows);
    println!(
        "=> reason ranks: security {security:.1}, bug fix {bug_fix:.1}, user request {user_request:.1}, new feature {new_feature:.1} (paper: 1.6 / 2.2 / 3.3 / 3.5)"
    );
    if let Some(dir) = ctx.csv() {
        let mut out = String::from("frequency,exp_0_2,exp_2_5,exp_5_10,exp_10_plus\n");
        for (freq, per_exp) in &fig {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                freq.label(),
                per_exp[0],
                per_exp[1],
                per_exp[2],
                per_exp[3]
            ));
        }
        write_document(Some(dir), "fig1.csv", out);
    }
}

fn fig2(_: &Ctx) {
    heading("Figure 2: Reluctance to upgrade");
    let rows = survey::dataset();
    let fig = survey::figure2(&rows);
    let table = vec![
        vec![
            "Refrain to install".to_string(),
            fig[&(true, false)].to_string(),
            fig[&(true, true)].to_string(),
        ],
        vec![
            "Does not refrain".to_string(),
            fig[&(false, false)].to_string(),
            fig[&(false, true)].to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["", "No testing strategy", "Have testing strategy"],
            &table
        )
    );
    let stats = survey::stats(&rows);
    println!(
        "=> {:.0}% refrain from installing; {:.0}% have a testing strategy (paper: 70% / 70%)",
        stats.refrain_fraction * 100.0,
        stats.strategy_fraction * 100.0
    );
}

fn fig3(ctx: &Ctx) {
    heading("Figure 3: Perceived upgrade failure rate");
    let rows = survey::dataset();
    let fig = survey::figure3(&rows);
    let table: Vec<Vec<String>> = fig
        .iter()
        .map(|(pct, count)| vec![format!("{pct}%"), count.to_string(), bar(*count, 20)])
        .collect();
    println!(
        "{}",
        render_table(&["Failure rate", "Respondents", ""], &table)
    );
    let stats = survey::stats(&rows);
    println!(
        "=> average {:.1}%, median {:.0}%, {:.0}% answered 5-10% (paper: 8.6% / 5% / 66%)",
        stats.failure_rate_avg,
        stats.failure_rate_median,
        stats.failure_rate_5_to_10 * 100.0
    );
    if let Some(dir) = ctx.csv() {
        let mut out = String::from("failure_rate_pct,respondents\n");
        for (pct, count) in &fig {
            out.push_str(&format!("{pct},{count}\n"));
        }
        write_document(Some(dir), "fig3.csv", out);
    }
}

fn table1(ctx: &Ctx) {
    heading("Table 1: Effectiveness of the heuristic in identifying environmental resources");
    let rows: Vec<Vec<String>> = apps::all_models()
        .iter()
        .map(|model| {
            let row = model.table1_row();
            let perfect = model.with_rules_row().is_perfect();
            vec![
                row.app.clone(),
                row.files_total.to_string(),
                row.env_resources.to_string(),
                row.false_positives.to_string(),
                row.false_negatives.to_string(),
                row.vendor_rules.to_string(),
                if perfect { "yes".into() } else { "NO".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "App",
                "Files total",
                "Env. resources",
                "False positives",
                "False negatives",
                "Required vendor rules",
                "Perfect with rules",
            ],
            &rows
        )
    );
    println!("=> paper: firefox 907/839/1/23/7, apache 400/251/133/0/2, php 215/206/0/0/0, mysql 286/250/0/33/1");
    if let Some(dir) = ctx.csv() {
        let mut out = String::from(
            "app,files_total,env_resources,false_positives,false_negatives,vendor_rules\n",
        );
        for row in &rows {
            out.push_str(&format!("{}\n", row.join(",")));
        }
        write_document(Some(dir), "table1.csv", out);
    }
}

fn quality(q: ClusterQuality) -> &'static str {
    match q {
        ClusterQuality::Ideal => "ideal",
        ClusterQuality::Sound => "sound",
        ClusterQuality::Imperfect => "imperfect",
    }
}

fn print_clustering(
    clustering: &mirage_cluster::Clustering,
    score: &mirage_cluster::ClusteringScore,
    behavior: &std::collections::BTreeMap<String, String>,
) {
    for cluster in &clustering.clusters {
        let marks: Vec<String> = cluster
            .members
            .iter()
            .map(|m| match behavior.get(m).map(String::as_str) {
                Some(problem) => format!("{m} [{problem}]"),
                None => m.clone(),
            })
            .collect();
        println!("  {}: {}", cluster.id, marks.join(", "));
    }
    println!(
        "=> {} clusters, C = {}, w = {} ({})",
        score.clusters,
        score.unnecessary_clusters,
        score.misplaced,
        quality(score.quality())
    );
}

fn fig6(_: &Ctx) {
    heading("Figure 6: MySQL clustering with parsers for all environmental resources");
    let scenario = mysql::MySqlScenario::with_full_parsers();
    let (clustering, score) = scenario.cluster_and_score();
    print_clustering(&clustering, &score, &scenario.behavior);
    println!("   paper: 15 clusters, C = 12, w = 0 (sound)");
}

fn fig7(_: &Ctx) {
    heading("Figure 7: MySQL clustering with Mirage parsers only (diameter 3)");
    let scenario = mysql::MySqlScenario::with_mirage_parsers(3);
    let (clustering, score) = scenario.cluster_and_score();
    print_clustering(&clustering, &score, &scenario.behavior);
    println!("   paper: w = 2 (the userconfig machines are absorbed; imperfect)");
    let (z_clustering, z_score) = mysql::MySqlScenario::with_mirage_parsers(0).cluster_and_score();
    println!(
        "   ablation d = 0: {} clusters, w = {} (benign differences split too)",
        z_clustering.len(),
        z_score.misplaced
    );
}

fn merge(_: &Ctx) {
    heading("§4.2.1: Vendor drops my.cnf items to merge clusters");
    let scenario = mysql::MySqlScenario::with_full_parsers();
    let (full, _) = scenario.cluster_and_score();
    let (merged, score) = scenario.cluster_ignoring_mycnf();
    println!(
        "  clusters: {} -> {} after ignoring /etc/mysql/my.cnf items; w = {}",
        full.len(),
        merged.len(),
        score.misplaced
    );
    println!(
        "  paper: merging my.cnf-variant clusters speeds staging while problems stay separated"
    );
}

fn fig8(_: &Ctx) {
    heading("Figure 8: Firefox clustering with parsers for all environmental resources");
    let scenario = firefox::FirefoxScenario::with_full_parsers();
    let (clustering, score) = scenario.cluster_and_score();
    print_clustering(&clustering, &score, &scenario.behavior);
    println!("   paper: 4 clusters, C = 2, w = 0 (sound)");
}

fn fig9(_: &Ctx) {
    heading("Figure 9: Firefox clustering with Mirage parsers only");
    for d in [4usize, 6] {
        println!("-- diameter {d} --");
        let scenario = firefox::FirefoxScenario::with_mirage_parsers(d);
        let (clustering, score) = scenario.cluster_and_score();
        print_clustering(&clustering, &score, &scenario.behavior);
    }
    println!("   paper: d = 4 ideal (w = 0, C = 0); d = 6 imperfect (w = 3)");
}

/// One deployment-latency figure: every curve's CDF as rows and bars,
/// the plot-ready `label,time,fraction` series with `--csv`, then what
/// the paper reports.
fn latency_figure(
    ctx: &Ctx,
    title: &str,
    curves: &[deployment::Curve],
    csv: &str,
    paper: [&str; 2],
) {
    heading(title);
    for curve in curves {
        println!(
            "-- {} (overhead {}, complete at {:?}) --",
            curve.label, curve.overhead, curve.completion
        );
        for (t, f) in render_cdf(&curve.cdf, 12) {
            println!("    t={t:>5}  {:>5.2}  {}", f, bar((f * 20.0) as usize, 20));
        }
    }
    if ctx.csv.is_some() {
        let mut out = String::from("label,time,fraction\n");
        for curve in curves {
            for (t, f) in &curve.cdf {
                out.push_str(&format!("{},{t},{f}\n", curve.label));
            }
        }
        write_document(ctx.csv(), csv, out);
    }
    for line in paper {
        println!("   {line}");
    }
}

fn fig10(ctx: &Ctx) {
    latency_figure(
        ctx,
        "Figure 10: CDF of per-cluster upgrade latency under sound clustering",
        &deployment::figure10(),
        "fig10.csv",
        [
            "paper: NoStaging 75% immediately; Balanced(best) fastest staged start;",
            "FrontLoading delayed by front-loaded debugging but finishes its last cluster first.",
        ],
    );
}

fn fig11(ctx: &Ctx) {
    latency_figure(
        ctx,
        "Figure 11: CDF of upgrade latency under imperfect clustering",
        &deployment::figure11(),
        "fig11.csv",
        [
            "paper: a misplaced machine in the first cluster slows FrontLoading and Balanced-best;",
            "in the last cluster the effect is marginal; overall trends unchanged.",
        ],
    );
}

fn overhead(_: &Ctx) {
    heading("§4.3.2: Upgrade overhead (machines that tested a faulty upgrade)");
    let rows: Vec<Vec<String>> = deployment::overhead_table()
        .into_iter()
        .map(|(label, overhead)| vec![label, overhead.to_string()])
        .collect();
    println!("{}", render_table(&["Protocol", "Overhead"], &rows));
    println!(
        "=> paper: NoStaging = m = {}, Balanced/RandomStaging = p = 3, FrontLoading = p + Cp = 5",
        deployment::problematic_machines()
    );
}
