//! Every name the benchmark prints, in one place.
//!
//! `BENCHMARK.json` and `README.md` declare the same names; the
//! name-drift test (`tests/names.rs`) fails when a name exists in only
//! one of the three.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The five workloads, in the order `--selfcheck-noise` runs them.
pub const WORKLOADS: [&str; 5] = [
    "live_wide",
    "plan_mysql",
    "sim_rollout",
    "sim_rollback",
    "urr_vendor",
];

/// Fastest timed repeat of one whole campaign.
pub const CAMPAIGN_S: &str = "campaign_s";
/// Fastest per-repeat input generation.
pub const SETUP_S: &str = "setup_s";
/// `VmHWM` of the run's process.
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen before a change counts as a regression. The time
/// bounds are the largest the driver accepts: on this shared host the
/// same code's fastest repeat moves by more than 0.10 from one run to
/// the next (README, "Why fastest-of-R").
pub const END_TO_END: [(MetricDef, f64); 3] = [
    (lower(CAMPAIGN_S, "s"), 0.25),
    (lower(SETUP_S, "s"), 0.25),
    (lower(PEAK_RSS_MB, "MiB"), 0.05),
];

// Per-layer metric names. A harness span is named after the metric it
// feeds, so the trace file and the printed table use one vocabulary.
pub const ENV_FLEET_BUILD_S: &str = "env.fleet_build_s";
pub const TRACE_COLLECT_S: &str = "trace.collect_s";
pub const HEURISTIC_CLASSIFY_REFERENCE_S: &str = "heuristic.classify_reference_s";
pub const FINGERPRINT_FLEET_INPUTS_S: &str = "fingerprint.fleet_inputs_s";
pub const CLUSTER_CLUSTER_S: &str = "cluster.cluster_s";
pub const CLUSTER_PHASE1_S: &str = "cluster.phase1_s";
pub const CLUSTER_PHASE2_S: &str = "cluster.phase2_s";
pub const CLUSTER_LABEL_S: &str = "cluster.label_s";
pub const CLUSTER_DISTANCE_EVALS: &str = "cluster.distance_evals";
pub const CLUSTER_QT_MERGES: &str = "cluster.qt_merges";
pub const CLUSTER_CLUSTERS: &str = "cluster.clusters";
pub const DEPLOY_PLAN_BUILD_S: &str = "deploy.plan_build_s";
pub const ROLLOUT_PLAN_SHAPE_S: &str = "rollout.plan_shape_s";
pub const CORE_DRIVE_S: &str = "core.drive_s";
pub const TESTING_VALIDATE_US: &str = "testing.validate_us";
pub const CORE_VALIDATIONS: &str = "core.validations";
pub const CORE_FAILED_VALIDATIONS: &str = "core.failed_validations";
pub const CORE_RELEASES_SHIPPED: &str = "core.releases_shipped";
pub const CORE_ROUNDS: &str = "core.rounds";
pub const REPORT_LIVE_DEPOSITS: &str = "report.live_deposits";
pub const SIM_SCENARIO_BUILD_S: &str = "sim.scenario_build_s";
pub const SIM_BARE_RUN_S: &str = "sim.bare_run_s";
pub const SIM_GUARDED_RUN_S: &str = "sim.guarded_run_s";
pub const REPORT_SINK_INGEST_S: &str = "report.sink_ingest_s";
pub const ROLLOUT_GUARD_S: &str = "rollout.guard_s";
pub const REPORT_JOURNAL_S: &str = "report.journal_s";
pub const ROLLOUT_GUARD_QUERY_P50_US: &str = "rollout.guard_query_p50_us";
pub const SIM_PARALLEL_W2_S: &str = "sim.parallel_w2_s";
pub const SIM_TESTS_TOTAL: &str = "sim.tests_total";
pub const SIM_FAILED_TESTS: &str = "sim.failed_tests";
pub const SIM_MSGS_DROPPED: &str = "sim.msgs_dropped";
pub const SIM_MSGS_DUPLICATED: &str = "sim.msgs_duplicated";
pub const SIM_RETRIES_SENT: &str = "sim.retries_sent";
pub const SIM_REVERTED: &str = "sim.reverted";
pub const ROLLOUT_EXPOSED_MACHINES: &str = "rollout.exposed_machines";
pub const SIM_COMPLETION_SIMTIME: &str = "sim.completion_simtime";
pub const SIM_TESTS_PER_S: &str = "sim.tests_per_s";
pub const REPORT_INTERN_S: &str = "report.intern_s";
pub const REPORT_JOURNAL_APPEND_S: &str = "report.journal_append_s";
pub const REPORT_APPEND_REPORTS_PER_S: &str = "report.append_reports_per_s";
pub const REPORT_SNAPSHOT_FREEZE_S: &str = "report.snapshot_freeze_s";
pub const REPORT_SERVE_S: &str = "report.serve_s";
pub const REPORT_SERVE_P50_US: &str = "report.serve_p50_us";
pub const REPORT_SERVE_P99_US: &str = "report.serve_p99_us";
pub const REPORT_SERVE_BYTES: &str = "report.serve_bytes";
pub const REPORT_RECOVER_S: &str = "report.recover_s";
pub const REPORT_RECOVERED_EQUAL: &str = "report.recovered_equal";
pub const TELEMETRY_OVERHEAD_PCT: &str = "telemetry.overhead_pct";
pub const HARNESS_OTHER_S: &str = "harness.other_s";
pub const HARNESS_CAMPAIGN_MEDIAN_S: &str = "harness.campaign_median_s";
pub const HARNESS_CAMPAIGN_MAX_S: &str = "harness.campaign_max_s";
pub const HARNESS_WARMUP_S: &str = "harness.warmup_s";
pub const HARNESS_REPEATS: &str = "harness.repeats";

/// Per-layer metrics, layer = crate. A metric a workload's layers do
/// no work for reads 0 on that workload.
pub const PER_LAYER: [MetricDef; 53] = [
    lower(ENV_FLEET_BUILD_S, "s"),
    lower(TRACE_COLLECT_S, "s"),
    lower(HEURISTIC_CLASSIFY_REFERENCE_S, "s"),
    lower(FINGERPRINT_FLEET_INPUTS_S, "s"),
    lower(CLUSTER_CLUSTER_S, "s"),
    lower(CLUSTER_PHASE1_S, "s"),
    lower(CLUSTER_PHASE2_S, "s"),
    lower(CLUSTER_LABEL_S, "s"),
    lower(CLUSTER_DISTANCE_EVALS, "count"),
    lower(CLUSTER_QT_MERGES, "count"),
    lower(CLUSTER_CLUSTERS, "count"),
    lower(DEPLOY_PLAN_BUILD_S, "s"),
    lower(ROLLOUT_PLAN_SHAPE_S, "s"),
    lower(CORE_DRIVE_S, "s"),
    lower(TESTING_VALIDATE_US, "us"),
    lower(CORE_VALIDATIONS, "count"),
    lower(CORE_FAILED_VALIDATIONS, "count"),
    lower(CORE_RELEASES_SHIPPED, "count"),
    lower(CORE_ROUNDS, "count"),
    lower(REPORT_LIVE_DEPOSITS, "count"),
    lower(SIM_SCENARIO_BUILD_S, "s"),
    lower(SIM_BARE_RUN_S, "s"),
    lower(REPORT_SINK_INGEST_S, "s"),
    lower(ROLLOUT_GUARD_S, "s"),
    lower(SIM_GUARDED_RUN_S, "s"),
    lower(REPORT_JOURNAL_S, "s"),
    lower(ROLLOUT_GUARD_QUERY_P50_US, "us"),
    lower(SIM_PARALLEL_W2_S, "s"),
    lower(SIM_TESTS_TOTAL, "count"),
    lower(SIM_FAILED_TESTS, "count"),
    lower(SIM_MSGS_DROPPED, "count"),
    lower(SIM_MSGS_DUPLICATED, "count"),
    lower(SIM_RETRIES_SENT, "count"),
    lower(SIM_REVERTED, "count"),
    lower(ROLLOUT_EXPOSED_MACHINES, "count"),
    lower(SIM_COMPLETION_SIMTIME, "simtime"),
    higher(SIM_TESTS_PER_S, "1/s"),
    lower(REPORT_INTERN_S, "s"),
    lower(REPORT_JOURNAL_APPEND_S, "s"),
    higher(REPORT_APPEND_REPORTS_PER_S, "1/s"),
    lower(REPORT_SNAPSHOT_FREEZE_S, "s"),
    lower(REPORT_SERVE_S, "s"),
    lower(REPORT_SERVE_P50_US, "us"),
    lower(REPORT_SERVE_P99_US, "us"),
    lower(REPORT_SERVE_BYTES, "count"),
    lower(REPORT_RECOVER_S, "s"),
    higher(REPORT_RECOVERED_EQUAL, "bool"),
    lower(TELEMETRY_OVERHEAD_PCT, "%"),
    lower(HARNESS_OTHER_S, "s"),
    lower(HARNESS_CAMPAIGN_MEDIAN_S, "s"),
    lower(HARNESS_CAMPAIGN_MAX_S, "s"),
    lower(HARNESS_WARMUP_S, "s"),
    higher(HARNESS_REPEATS, "count"),
];

/// Spans the program itself opens (see `mirage_cluster::ClusterEngine`)
/// and the metric each one feeds.
pub const LIBRARY_SPANS: [(&str, &str); 3] = [
    ("phase1", CLUSTER_PHASE1_S),
    ("phase2", CLUSTER_PHASE2_S),
    ("label", CLUSTER_LABEL_S),
];
