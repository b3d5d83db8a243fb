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
//! queue-depth high-water gauge, and the campaign flight-event log — is
//! written to `<path>` as pretty-printed JSON. Passing `--telemetry`
//! alone selects the `telemetry` experiment.
//!
//! `--smoke` shrinks the suites' fleets and volumes so CI can exercise
//! every path in debug builds; `MIRAGE_BENCH_MS` sets the per-benchmark
//! sampling budget (default 150 ms).

use std::path::{Path, PathBuf};
use std::time::Instant;

use mirage_bench::doc::{round_to, write_document, BenchDoc};
use mirage_bench::harness::{black_box, fmt_ns, Harness};
use mirage_bench::{bar, render_cdf, render_table};
use mirage_cluster::ClusterQuality;
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
    ("telemetry", true, "instrumented flight dump; needs --telemetry <path>", telemetry_dump),
    ("clustering-perf", false, "clustering hot path -> BENCH_clustering.json", clustering_perf),
    ("sim-perf", false, "simulator, 100k to 10M machines -> BENCH_sim.json", sim_perf),
    ("fault-sweep", false, "convergence vs message loss -> BENCH_faults.json", fault_sweep),
    ("sweep", false, "protocol x threshold x loss grid, one arena -> BENCH_sweep.json", sweep),
    ("urr-perf", false, "URR ingest + vendor queries -> BENCH_urr.json", urr_perf),
    ("drift-perf", false, "drift engine vs reference loop -> BENCH_drift.json", drift_perf),
    ("trace", false, "journal overhead -> BENCH_trace.json + mirage-trace.json", trace),
    ("health", false, "per-wave health under 30% loss -> mirage-health.json", health),
    ("rollback-sweep", false, "guarded rollback grid -> BENCH_rollback.json", rollback_sweep),
    ("urr-store-perf", false, "durable URR: WAL, recovery, serving -> BENCH_storage.json", urr_store_perf),
    ("bench-check", false, "gate the BENCH_*.json in --csv dir (default .); exit 1", bench_check),
];

fn usage() -> String {
    let mut out = String::from(
        "usage: repro [experiment] [--csv <dir>] [--telemetry <path>] [--smoke]\n\n\
         experiments (* = part of `all`, the default; --smoke shrinks the fleet or\n\
         volume of every suite below sim-perf):\n",
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

/// Validates every committed `BENCH_*.json` document against the checks
/// in [`mirage_bench::benchgate`] and exits non-zero when any fails —
/// the `bench-check` CI gate. Documents are read from the `--csv`
/// directory when given, the working directory otherwise.
fn bench_check(ctx: &Ctx) {
    use mirage_bench::benchgate::{check, SUITES};

    heading("Bench gate: validating committed BENCH_*.json documents");
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
    println!("=> all committed benchmark documents pass the gate");
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
/// Ingest compares the sharded, interned batch path
/// ([`mirage_report::Urr::deposit_interned_batch`], the one the
/// simulator's `UrrSink` drives) against the retained string-keyed
/// [`mirage_report::reference::Urr`] on the same report stream. Each
/// sample deposits into a *fresh* repository; interning and record
/// construction happen outside the timed region for the sharded path,
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
    suite_heading(ctx, "URR performance: sharded ingest + vendor queries");
    let (n_main, n_big) = stream::volumes(smoke);
    let mut h = Harness::new("urr-perf");

    // --- Ingest at the main volume: sharded interned batches vs the
    // retained string-keyed reference, *interleaved* so both paths
    // sample the same machine conditions (allocator state, frequency
    // scaling) and the min-over-min speedup is a paired comparison.
    // Each closure reports the nanoseconds of its *timed region* so
    // per-sample setup (fresh repository, untimed interning) stays out
    // of the statistics.
    let sharded_pass = |names: &[String]| -> u64 {
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
    let sharded_main = format!("urr/ingest/sharded-{}", volume_label(n_main));
    let reference_main = format!("urr/ingest/reference-{}", volume_label(n_main));
    h.bench_paired_ns(
        &sharded_main,
        &reference_main,
        || sharded_pass(&names),
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

    // --- Ingest at scale: the sharded path only (the reference would
    // dominate the budget at a million reports).
    let names_big = stream::machine_names(n_big);
    let sharded_big = format!("urr/ingest/sharded-{}", volume_label(n_big));
    h.bench_ns(&sharded_big, || sharded_pass(&names_big));

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
    let speedup = h.speedup(&reference_main, &sharded_main);
    println!(
        "=> sharded interned ingest is {speedup:.2}x the string-keyed reference \
         at {} reports (min-over-min)",
        volume_label(n_main)
    );
    println!(
        "=> ingest throughput: sharded {:.0}/s, reference {:.0}/s, sharded-{} {:.0}/s",
        reports_per_sec(&sharded_main, n_main),
        reports_per_sec(&reference_main, n_main),
        volume_label(n_big),
        reports_per_sec(&sharded_big, n_big),
    );

    let mut doc = BenchDoc::new(
        "urr-perf",
        format!(
            "{n_main} reports over {} clusters, 10% failures across {} signatures; sharded = \
             interned 4096-record batches into a fresh repository per sample (interning \
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
                ingest_rate("sharded", &sharded_main, n_main),
                ingest_rate("reference", &reference_main, n_main),
                ingest_rate("sharded", &sharded_big, n_big),
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
        "sharded ingest speedup {speedup:.2}x fell below the {floor}x regression floor; see {}",
        path.display()
    );
}

/// Benchmarks the durable URR storage backend — WAL append throughput,
/// crash-recovery time, and mixed read/write serving — and writes
/// `BENCH_storage.json`.
///
/// The report [`stream`] matches `urr-perf`. Seven measurements plus one
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
///   `report.snapshot_freeze_s` and `report.serve_s` are made of;
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
    let top_k_us = min_ns(&top_k) as f64 / 1e3;
    println!(
        "=> journaled append: {append_mem_rate:.0}/s memory, {append_fs_rate:.0}/s fs; \
         recovery at {}: {recovery_wal_ms:.1} ms WAL-only, {recovery_snap_ms:.1} ms snapshot+tail",
        volume_label(n_main)
    );
    println!(
        "=> serving at {}: freeze {freeze_ms:.2} ms, one TopK(5) response {top_k_us:.1} us",
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
             TopK(5) frame on one thread over the snapshot-row repository; the mixed \
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
        .set(&key("freeze", n_main, "ms"), round_to(freeze_ms, 2))
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

/// Benchmarks re-clustering after fleet drift — the batch drift engine
/// on the dense interned plane vs the retained reference loop — and
/// writes `BENCH_drift.json`.
///
/// The fleet is synthetic but adversarially bucketed: `envs`
/// environments (distinct parsed diffs), each split into 4 config
/// variants of `per_cluster` machines, so every candidate scan must
/// pick between 4 same-environment clusters. The drift batch is
/// power-law: a cubed uniform sample concentrates churn on the low
/// environments, like a hot config pushed rack by rack; each delta
/// rewrites a machine's config variant (deltas that land on the
/// machine's current variant are genuine no-ops and exercise the
/// fast path).
///
/// Three measurements:
/// * the paired batch comparison (`drift/100k/batch-engine` vs
///   `drift/100k/reference-loop`, interleaved samples, engine rebuild
///   and reference fleet-map clone untimed on their own sides);
/// * per-delta re-cluster latency on a persistent engine
///   (`drift/100k/per-delta`, one sample per delta; the document's
///   `recluster_p50_ns`/`recluster_p99_ns`);
/// * a single-shot 1M-machine batch (`drift/1m/batch-engine`, marked
///   `scale`; full runs only).
///
/// Before timing anything, the run drives both planes over the same
/// batch and cross-checks their `DriftStats` and output clusterings —
/// the `drift_counters_match` flag the bench gate requires — so the
/// speedup is provably a comparison of equivalent work.
///
/// `--smoke` shrinks the fleet (5k machines, 100 deltas, no 1M row).
fn drift_perf(ctx: &Ctx) {
    use std::collections::BTreeMap;

    use mirage_cluster::{
        clustering_from_groups, drift_reference, Clustering, DriftEngine, DriftOp, MachineDelta,
        MachineInfo,
    };
    use mirage_fingerprint::{DiffSet, Item};
    use mirage_telemetry::Telemetry;

    let smoke = ctx.smoke;
    suite_heading(ctx, "Drift performance: batch engine vs reference loop");

    const VARIANTS: usize = 4;
    let diameter = 1usize;
    let (envs, per_cluster, delta_count) = if smoke {
        (10, 125, 100)
    } else {
        (200, 125, 1000)
    };
    let n_main = envs * VARIANTS * per_cluster;

    /// `envs` environments x 4 config variants x `per` machines, grouped
    /// into derived-consistent clusters.
    fn fleet(envs: usize, per: usize) -> (Clustering, Vec<MachineInfo>) {
        let mut groups = Vec::with_capacity(envs * VARIANTS);
        for e in 0..envs {
            for v in 0..VARIANTS {
                groups.push(
                    (0..per)
                        .map(|m| {
                            let mut diff = DiffSet::empty(format!("m-{e:04}-{v}-{m:04}"));
                            diff.parsed.insert(Item::new([format!("env{e}")]));
                            diff.content.insert(Item::new([format!("cfg{v}")]));
                            MachineInfo::new(diff)
                        })
                        .collect(),
                );
            }
        }
        clustering_from_groups(&groups)
    }

    /// Power-law drift batch: each delta forces its machine onto a
    /// random config variant (removing every variant first, so a delta
    /// onto the current variant is a no-op).
    fn drift_batch(seed: &mut u64, fleet: &[MachineInfo], count: usize) -> Vec<MachineDelta> {
        let mut rng = move || {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            *seed
        };
        let all_cfgs: Vec<Item> = (0..VARIANTS)
            .map(|v| Item::new([format!("cfg{v}")]))
            .collect();
        let total = fleet.len();
        (0..count)
            .map(|_| {
                let r = (rng() % total as u64) as f64 / total as f64;
                let idx = ((r * r * r) * total as f64) as usize;
                let to = (rng() % VARIANTS as u64) as usize;
                MachineDelta {
                    machine: fleet[idx.min(total - 1)].id().to_string(),
                    op: DriftOp::ConfigEdit {
                        add: vec![all_cfgs[to].clone()],
                        remove: all_cfgs.clone(),
                    },
                }
            })
            .collect()
    }

    let mut seed = 0x9e3779b97f4a7c15u64;
    let (clustering, fleet_main) = fleet(envs, per_cluster);
    let deltas = drift_batch(&mut seed, &fleet_main, delta_count);
    assert_eq!(fleet_main.len(), n_main);

    // --- Cross-plane verification (untimed): the batch the benchmark
    // times must mean exactly the same thing to both planes.
    let mut verify_engine = DriftEngine::new(&clustering, &fleet_main, diameter);
    let engine_stats = verify_engine.recluster_batch(&deltas);
    verify_engine.validate().expect("engine invariants");
    let mut ref_map: BTreeMap<String, MachineInfo> = fleet_main
        .iter()
        .map(|m| (m.id().to_string(), m.clone()))
        .collect();
    let (ref_clustering, ref_stats) = drift_reference(
        &clustering,
        &mut ref_map,
        &deltas,
        diameter,
        &Telemetry::noop(),
    );
    let counters_match = engine_stats == ref_stats && verify_engine.clustering() == ref_clustering;
    println!(
        "=> verification: {} applied ({} moves, {} adoptions, {} singletons, {} no-ops), \
         {} distance evals; planes {}",
        engine_stats.applied,
        engine_stats.moves,
        engine_stats.adoptions,
        engine_stats.singletons,
        engine_stats.noops,
        engine_stats.dist_evals,
        if counters_match { "agree" } else { "DIVERGED" }
    );
    drop(verify_engine);
    drop(ref_clustering);

    let mut h = Harness::new("drift-perf");

    // --- Paired batch comparison, interleaved so both planes sample the
    // same machine conditions. Setup stays untimed on both sides: the
    // engine rebuild (pool lowering, bucket construction) for the batch
    // plane, the fleet-map clone for the reference plane.
    let engine_row = format!("drift/{}/batch-engine", volume_label(n_main));
    let reference_row = format!("drift/{}/reference-loop", volume_label(n_main));
    h.bench_paired_ns(
        &engine_row,
        &reference_row,
        || {
            let mut engine = DriftEngine::new(&clustering, &fleet_main, diameter);
            let t0 = Instant::now();
            black_box(engine.recluster_batch(&deltas));
            t0.elapsed().as_nanos() as u64
        },
        || {
            let mut map = ref_map.clone();
            let t0 = Instant::now();
            black_box(drift_reference(
                &clustering,
                &mut map,
                &deltas,
                diameter,
                &Telemetry::noop(),
            ));
            t0.elapsed().as_nanos() as u64
        },
    );
    drop(ref_map);

    // --- Per-delta re-cluster latency on a persistent engine: the
    // "machine drifted, how stale is the clustering" number.
    let mut latency_engine = DriftEngine::new(&clustering, &fleet_main, diameter);
    let mut per_delta: Vec<u64> = Vec::with_capacity(deltas.len());
    for delta in &deltas {
        let t0 = Instant::now();
        black_box(latency_engine.recluster_batch(std::slice::from_ref(delta)));
        per_delta.push(t0.elapsed().as_nanos() as u64);
    }
    let per_delta_row = format!("drift/{}/per-delta", volume_label(n_main));
    h.record(&per_delta_row, per_delta);
    drop(latency_engine);

    // --- 1M-machine scale batch (full runs only): one honest sample.
    let scale_1m = if smoke {
        None
    } else {
        let (clustering_big, fleet_big) = fleet(500, 500);
        let deltas_big = drift_batch(&mut seed, &fleet_big, 1000);
        let mut engine_big = DriftEngine::new(&clustering_big, &fleet_big, diameter);
        let mut stats_big = None;
        let ns = h
            .bench_scale("drift/1m/batch-engine", || {
                stats_big = Some(engine_big.recluster_batch(&deltas_big));
            })
            .min_ns;
        let stats_big = stats_big.expect("scale rows sample exactly once");
        println!(
            "=> 1M-machine batch: {} deltas ({} moves) in {}",
            stats_big.applied + stats_big.noops,
            stats_big.moves,
            fmt_ns(ns as f64)
        );
        Some((ns as f64 / 1e9, stats_big.moves))
    };

    let speedup = h.speedup(&reference_row, &engine_row);
    let lat = h.row(&per_delta_row);
    let moves_per_sec = engine_stats.moves as f64 / (h.row(&engine_row).min_ns.max(1) as f64 / 1e9);
    println!(
        "=> batch engine is {speedup:.2}x the reference loop at {} machines / {} deltas \
         (min-over-min); sustained {moves_per_sec:.0} moves/s",
        volume_label(n_main),
        deltas.len()
    );
    println!(
        "=> re-cluster-after-drift latency: p50 {}, p99 {}",
        fmt_ns(lat.p50_ns as f64),
        fmt_ns(lat.p99_ns as f64)
    );

    let mut doc = BenchDoc::new(
        "drift-perf",
        format!(
            "{envs} environments x {VARIANTS} config variants x {per_cluster} machines; {} \
             power-law config-variant deltas per batch; batch engine = persistent interned \
             plane (engine rebuild untimed per sample), reference = recluster_one loop over \
             the retained plane (fleet-map clone untimed per sample); per-delta row times \
             single-delta batches on one persistent engine; both planes verified to produce \
             identical clusterings and drift counters on the measured batch before timing",
            deltas.len()
        ),
    );
    doc.set("smoke", smoke)
        .set("machines", n_main)
        .set("deltas", deltas.len())
        .harness_rows(h.results())
        .set("speedup_100k_vs_reference", round_to(speedup, 2))
        .set("recluster_p50_ns", lat.p50_ns)
        .set("recluster_p99_ns", lat.p99_ns)
        .set("moves_per_sec", moves_per_sec.round())
        .set(
            "batch",
            Value::obj([
                ("applied", Value::from(engine_stats.applied)),
                ("noops", Value::from(engine_stats.noops)),
                ("moves", Value::from(engine_stats.moves)),
                ("adoptions", Value::from(engine_stats.adoptions)),
                ("singletons", Value::from(engine_stats.singletons)),
                ("dist_evals", Value::from(engine_stats.dist_evals)),
            ]),
        );
    if let Some((seconds, moves)) = scale_1m {
        doc.set("scale_1m_seconds", round_to(seconds, 3))
            .set("scale_1m_moves", moves);
    }
    doc.set("drift_counters_match", counters_match);
    let path = doc.write(ctx.csv(), "BENCH_drift.json");

    assert!(
        counters_match,
        "drift planes diverged on the measured batch; see {}",
        path.display()
    );
    // In-binary regression floor: the acceptance threshold on full runs
    // (the measured batch/reference gap is orders of magnitude wider, so
    // runner noise cannot flake this), and a sanity >= 1x on smoke
    // fleets where debug builds compress the gap.
    let floor = if smoke { 1.0 } else { 5.0 };
    assert!(
        speedup >= floor,
        "batch-engine speedup {speedup:.2}x fell below the {floor}x regression floor; see {}",
        path.display()
    );
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

    use mirage_deploy::{Balanced, MachineId, ProblemId};
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
    // `Journal` as the recorder (no registry, no counters, no flight
    // ring), so the delta is the journal's own cost — the clock stores,
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
                .run(&mut Balanced::new(scenario.plan.clone(), 1.0))
                .failed_tests
        },
        || {
            bench_journal.reset();
            let telemetry = Telemetry::from_recorder(Arc::clone(&bench_journal) as _);
            let mut protocol =
                Balanced::new(scenario.plan.clone(), 1.0).with_telemetry(telemetry.clone());
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
    let mut protocol = Balanced::new(scenario.plan.clone(), 1.0).with_telemetry(telemetry.clone());
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

    use mirage_deploy::Balanced;
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
    let mut protocol = Balanced::new(scenario.plan.clone(), 1.0).with_telemetry(telemetry.clone());
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

    suite_heading(ctx, "Fault sweep: convergence vs message-loss rate");

    let protocols = ["NoStaging", "Balanced", "FrontLoading"];
    let loss_pcts: &[u32] = &[0, 5, 10, 15, 20, 25, 30];
    let mut rows: Vec<Value> = Vec::new();
    let mut all_converged = true;

    for &loss_pct in loss_pcts {
        let loss = loss_pct as f64 / 100.0;
        // Deterministic per-cell seed so the sweep replays exactly.
        let spec = FaultSpec::new(0xFA17_0000 + loss_pct as u64)
            .loss(loss)
            .duplication(loss / 2.0)
            .delay(10)
            .rep_timeout(4_000);
        let scenario = late_problem_fleet(ctx.smoke).faults(spec).build();
        let total = scenario.machine_count();
        for protocol in protocols {
            let m = deployment::run_protocol(&scenario, protocol);
            let converged = m.passed_count() == total;
            all_converged &= converged;
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

    println!(
        "=> {} under every loss rate up to 30%",
        if all_converged {
            "all protocols converged to 100%"
        } else {
            "CONVERGENCE FAILURES (see rows)"
        }
    );

    let (clusters, size) = fleet_dims(ctx.smoke);
    let mut doc = BenchDoc::new(
        "fault-sweep",
        format!(
            "{} machines ({clusters}x{size}), problems placed late; duplication = loss/2, \
             delay uniform 0..=10, rep_timeout 4000, seeded per cell",
            clusters * size
        ),
    );
    doc.set("smoke", ctx.smoke)
        .grid_rows(rows)
        .set("all_converged", all_converged);
    let path = doc.write(ctx.csv(), "BENCH_faults.json");
    assert!(
        all_converged,
        "fault sweep found non-converging runs; see {}",
        path.display()
    );
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
/// containment claim in EXPERIMENTS.md, so the run asserts the flags.
fn rollback_sweep(ctx: &Ctx) {
    use std::sync::Arc;

    use mirage_core::{GuardSettings, ProtocolChoice, RolloutStrategy};
    use mirage_report::Urr;
    use mirage_sim::FaultSpec;
    use mirage_telemetry::Telemetry;

    let smoke = ctx.smoke;
    suite_heading(
        ctx,
        "Rollback sweep: guarded strategies vs a fleet-wide regression",
    );

    let (clusters, size) = fleet_dims(smoke);
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
    let (mut all_good_converged, mut all_bad_contained, mut bad_canary_aborts) = (true, true, true);

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
                let mut controller =
                    scenario.rollout_controller(ProtocolChoice::Balanced, Telemetry::noop());
                let exposure_limit = controller.plan().exposure_limit();
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
                    all_good_converged &= converged && !rolled_back;
                } else {
                    all_bad_contained &= if rolled_back {
                        exposed <= exposure_limit
                    } else {
                        converged
                    };
                    if matches!(strategy, RolloutStrategy::Canary { .. }) {
                        bad_canary_aborts &= rolled_back;
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

    println!(
        "=> good releases: {}; bad releases: {}",
        if all_good_converged {
            "all converged, no false-positive aborts"
        } else {
            "CONVERGENCE FAILURES (see rows)"
        },
        if all_bad_contained && bad_canary_aborts {
            "all contained (canary aborted every one)"
        } else {
            "CONTAINMENT FAILURES (see rows)"
        }
    );

    let mut doc = BenchDoc::new(
        "rollback-sweep",
        format!(
            "{machines} machines ({clusters}x{size}); bad = one regression seeded into every \
             cluster; guard rate 0.3, population {}, min_reports 5, hysteresis 2/1; \
             duplication = loss/2, delay uniform 0..=10, seeded per cell",
            guard.max_failure_population
        ),
    );
    doc.set("smoke", smoke)
        .set("machines", machines)
        .grid_rows(rows)
        .set("all_good_converged", all_good_converged)
        .set("all_bad_contained", all_bad_contained);
    let path = doc.write(ctx.csv(), "BENCH_rollback.json");
    assert!(
        all_good_converged,
        "a good release failed to converge (or was aborted); see {}",
        path.display()
    );
    assert!(
        all_bad_contained,
        "a bad release escaped containment; see {}",
        path.display()
    );
    assert!(
        bad_canary_aborts,
        "a guarded canary failed to abort a bad release; see {}",
        path.display()
    );
}

/// Runs a protocol × threshold × message-loss grid through the sharded
/// parallel driver, every cell reusing one [`mirage_sim::SimArena`],
/// and writes `BENCH_sweep.json`.
///
/// This is the sweep workload the arena exists for: dozens of
/// simulator runs back to back, where per-run queue and scratch
/// allocation would otherwise dominate the small cells. The grid
/// covers the three staged protocols at thresholds 1.0 and 0.9 under
/// 0/10/20% message loss (duplication at half the loss rate, ±10-tick
/// delay, vendor hardening on, seeded per cell so the sweep replays
/// exactly).
///
/// The worker count is fixed rather than host-derived so the committed
/// document does not depend on the machine that produced it (the cells
/// are bit-identical at any count). Every cell must converge to a full
/// fleet pass; the run exits non-zero otherwise.
///
/// `--smoke` shrinks the fleet to 8×125 and the grid to threshold 1.0 ×
/// loss {0, 20}%.
fn sweep(ctx: &Ctx) {
    use mirage_deploy::ProtocolChoice;
    use mirage_sim::{FaultSpec, SimArena};

    const WORKERS: usize = 8;
    let smoke = ctx.smoke;
    suite_heading(ctx, "Sweep: protocol x threshold x loss grid, shared arena");

    let protocols = [
        ProtocolChoice::NoStaging,
        ProtocolChoice::Balanced,
        ProtocolChoice::FrontLoading,
    ];
    let thresholds: &[f64] = if smoke { &[1.0] } else { &[1.0, 0.9] };
    let loss_pcts: &[u32] = if smoke { &[0, 20] } else { &[0, 10, 20] };

    let mut cells: Vec<Value> = Vec::new();
    let mut all_converged = true;
    let mut arena = SimArena::new();
    let sweep_started = Instant::now();

    for &loss_pct in loss_pcts {
        // One scenario per loss rate, shared by every protocol and
        // threshold cell at that rate.
        let mut builder = late_problem_fleet(smoke);
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
                    .workers(WORKERS)
                    .arena(&mut arena)
                    .run(&mut protocol);
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                let converged = m.passed_count() == total;
                all_converged &= converged;
                println!(
                    "  loss {loss_pct:>2}%  thr {threshold:.1}  {:<12}  passed {:>6}/{total}  \
                     completion {:?}  failed {}  escaped {}  ({wall_ms:.1} ms)",
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
                    ("wall_ms", Value::from(round_to(wall_ms, 1))),
                ]));
            }
        }
    }

    println!(
        "=> {} cells in {:.2} s on one arena ({WORKERS} workers): {}",
        cells.len(),
        sweep_started.elapsed().as_secs_f64(),
        if all_converged {
            "all converged to a full fleet pass"
        } else {
            "CONVERGENCE FAILURES (see rows)"
        }
    );

    let (clusters, size) = fleet_dims(smoke);
    let mut doc = BenchDoc::new(
        "sim-sweep",
        format!(
            "{} machines ({clusters}x{size}), problems placed late; grid = protocol x threshold x loss with \
             duplication = loss/2, delay uniform 0..=10, rep_timeout 4000, seeded per loss \
             rate; every cell runs on the sharded driver in one shared SimArena; wall_ms is \
             informational (host-dependent)",
            clusters * size
        ),
    );
    doc.set("smoke", smoke)
        .set("workers", WORKERS)
        .grid_rows(cells)
        .set("all_converged", all_converged);
    let path = doc.write(ctx.csv(), "BENCH_sweep.json");
    assert!(
        all_converged,
        "sweep found non-converging cells; see {}",
        path.display()
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
///   interned sequential driver, per protocol;
/// * the sharded parallel driver under Balanced at 100k and 1M with
///   1/2/4/8 workers (`w1` delegates to the sequential oracle — it *is*
///   the one-worker configuration). Each sample clones the plan and
///   builds the protocol untimed, then times the run; the parallel rows
///   reuse a `SimArena` across samples, the sequential row's in-run
///   allocation being its real per-run cost;
/// * one single-shot `scale` row: 10M machines (1000×10 000), Balanced,
///   8 workers — the acceptance workload for the sub-10 s budget.
///
/// Before timing anything, the reference driver and the parallel driver
/// at 2/4/8 workers are asserted bit-identical to the sequential
/// interned driver on the 100k scenario (the same properties the seeded
/// proptests check on random scenarios).
fn sim_perf(ctx: &Ctx) {
    use mirage_deploy::reference::{
        NamedBalanced, NamedFrontLoading, NamedNoStaging, NamedProtocol,
    };
    use mirage_deploy::{Balanced, FrontLoading, NoStaging, Protocol};
    use mirage_sim::runner::reference::{run_reference, NamedScenario};
    use mirage_sim::{Scenario, SimArena};

    heading("Simulator performance (interned vs reference, sequential vs parallel)");

    let s100k = deployment::sound_scenario(deployment::ProblemPlacement::Late);
    let named = NamedScenario::from_scenario(&s100k);
    // 1M machines, problems placed late like the Figure-10 setup.
    let s1m = ScenarioBuilder::new()
        .clusters(100, 10_000, 1)
        .problem_in_clusters(deployment::PREVALENT, &[75, 80, 85])
        .problem_in_clusters(deployment::RARE_A, &[90])
        .problem_in_clusters(deployment::RARE_B, &[95])
        .build();

    type FastFactory = (&'static str, Box<dyn Fn(&Scenario) -> Box<dyn Protocol>>);
    let fast: Vec<FastFactory> = vec![
        (
            "NoStaging",
            Box::new(|s| Box::new(NoStaging::new(s.plan.clone()))),
        ),
        (
            "Balanced",
            Box::new(|s| Box::new(Balanced::new(s.plan.clone(), 1.0))),
        ),
        (
            "FrontLoading",
            Box::new(|s| Box::new(FrontLoading::new(s.plan.clone(), 1.0))),
        ),
    ];
    let slow = |name: &str, n: &NamedScenario| -> Box<dyn NamedProtocol> {
        match name {
            "NoStaging" => Box::new(NamedNoStaging::new(n.plan.clone())),
            "Balanced" => Box::new(NamedBalanced::new(n.plan.clone(), 1.0)),
            _ => Box::new(NamedFrontLoading::new(n.plan.clone(), 1.0)),
        }
    };

    // Sanity: the drivers agree on the full 100k scenario before any
    // timing (same equivalences the seeded proptests establish).
    for (name, make) in &fast {
        let fast_m = Simulation::new(&s100k).run(make(&s100k).as_mut());
        let slow_m = run_reference(&named, slow(name, &named).as_mut());
        assert_eq!(
            fast_m, slow_m,
            "{name}: drivers diverged on the 100k scenario"
        );
    }
    {
        let mut arena = SimArena::new();
        let expect = Simulation::new(&s100k).run(&mut Balanced::new(s100k.plan.clone(), 1.0));
        for workers in [2usize, 4, 8] {
            let mut p = Balanced::new(s100k.plan.clone(), 1.0);
            let got = Simulation::new(&s100k)
                .workers(workers)
                .arena(&mut arena)
                .run(&mut p);
            assert_eq!(
                expect, got,
                "parallel driver diverged at {workers} workers on the 100k scenario"
            );
        }
    }
    println!("  (reference and parallel drivers bit-identical to sequential on 100k)\n");

    let mut h = Harness::new("sim-perf");
    for (name, make) in &fast {
        h.bench_paired(
            &format!("sim/100k/interned/{name}"),
            &format!("sim/100k/reference/{name}"),
            || {
                Simulation::new(&s100k)
                    .run(make(&s100k).as_mut())
                    .failed_tests
            },
            || run_reference(&named, slow(name, &named).as_mut()).failed_tests,
        );
    }
    for (name, make) in &fast {
        h.bench(&format!("sim/1m/interned/{name}"), || {
            Simulation::new(&s1m).run(make(&s1m).as_mut()).failed_tests
        });
    }

    // Parallel-driver rows: per sample, the plan clone and protocol
    // construction stay untimed (identically on every row), then the
    // run itself is timed; the `interned` rows above time all three.
    // Each row reuses its own arena across samples; `w1` delegates to
    // the sequential driver, whose internal allocation is its honest
    // per-run cost.
    fn par_ns(s: &Scenario, arena: &mut SimArena, workers: usize) -> u64 {
        let mut p = Balanced::new(s.plan.clone(), 1.0);
        let t0 = Instant::now();
        black_box(
            Simulation::new(s)
                .workers(workers)
                .arena(arena)
                .run(&mut p)
                .failed_tests,
        );
        t0.elapsed().as_nanos() as u64
    }
    for (s, size) in [(&s100k, "100k"), (&s1m, "1m")] {
        // The headline pair (w1 vs w8) samples strictly interleaved;
        // the intermediate counts pair up likewise.
        for (w_a, w_b) in [(1usize, 8usize), (2, 4)] {
            let mut arena_a = SimArena::new();
            let mut arena_b = SimArena::new();
            h.bench_paired_ns(
                &format!("sim/{size}/parallel/w{w_a}/Balanced"),
                &format!("sim/{size}/parallel/w{w_b}/Balanced"),
                || par_ns(s, &mut arena_a, w_a),
                || par_ns(s, &mut arena_b, w_b),
            );
        }
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
    let mut proto10 = Balanced::new(s10m.plan.clone(), 1.0);
    h.bench_scale("sim/10m/parallel/w8/Balanced", || {
        Simulation::new(&s10m)
            .workers(8)
            .arena(&mut arena10)
            .run(&mut proto10)
            .failed_tests
    });

    let mut speedups = Vec::new();
    for (name, _) in &fast {
        let speedup = h.speedup(
            &format!("sim/100k/reference/{name}"),
            &format!("sim/100k/interned/{name}"),
        );
        println!("=> {name}: 100k interned is {speedup:.2}x the string reference (min-over-min)");
        speedups.push((*name, Value::from(round_to(speedup, 2))));
    }
    let b1m_secs = h.row("sim/1m/interned/Balanced").min_ns as f64 / 1e9;
    println!("=> 1M-machine Balanced run: {b1m_secs:.2} s (min, sequential)");
    let par_speedup = |size: &str| {
        h.speedup(
            &format!("sim/{size}/parallel/w1/Balanced"),
            &format!("sim/{size}/parallel/w8/Balanced"),
        )
    };
    let sp100k = par_speedup("100k");
    let sp1m = par_speedup("1m");
    println!(
        "=> parallel w8 vs w1 (Balanced, min-over-min): {sp100k:.2}x at 100k, {sp1m:.2}x at 1M"
    );
    let b10m_secs = h.row("sim/10m/parallel/w8/Balanced").min_ns as f64 / 1e9;
    println!("=> 10M-machine Balanced run (8 workers): {b10m_secs:.2} s (single scale sample)");

    let mut doc = BenchDoc::new(
        "sim-perf",
        "100k = the paper's Figure-10 scenario (20x5000, problems late); 1m = 100x10000, \
         10m = 1000x10000 with the same late placement; reference = the retained string-keyed \
         BinaryHeap driver + protocols; interned and reference rows time plan clone + protocol \
         construction + run (the interned clone shares the plan's machine table and copies \
         cluster id vectors only; the reference clone copies every name); parallel rows time \
         the run only, reuse a SimArena across samples, and w1 is the sequential oracle the \
         sharded driver is bit-identical to; scale rows are intentionally single-sample",
    );
    doc.harness_rows(h.results())
        .set("speedup_100k_vs_reference", Value::obj(speedups))
        .set("balanced_1m_seconds", round_to(b1m_secs, 3))
        .set("balanced_1m_under_10s", b1m_secs < 10.0)
        .set("parallel_speedup_100k_w8_vs_w1", round_to(sp100k, 2))
        .set("parallel_speedup_1m_w8_vs_w1", round_to(sp1m, 2))
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
/// timings, counters, gauges, flight-event log) as JSON to the
/// `--telemetry` path.
///
/// The simulation runs first so its high-volume per-machine events
/// cannot evict the campaign's flight log from the bounded ring; exact
/// per-kind event *counts* include evicted events either way.
fn telemetry_dump(ctx: &Ctx) {
    use std::sync::Arc;

    use mirage_core::{Campaign, ProtocolChoice, RolloutStrategy};
    use mirage_deploy::Balanced;
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
    let mut protocol =
        Balanced::new(sim_scenario.plan.clone(), 1.0).with_telemetry(telemetry.clone());
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
        "  wrote {} ({} counters, {} span paths, {} gauges, {} flight events)",
        path.display(),
        snap.counters.len(),
        snap.spans.len(),
        snap.gauges.len(),
        snap.events_total
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
