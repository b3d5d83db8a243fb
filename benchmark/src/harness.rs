//! The measurement harness: run shape, statistics, host facts.
//!
//! Three separate pieces, after Dfuntest: a workload generates its
//! fleet ([`Workload::setup`]), the campaign under test is the
//! program's public API ([`Workload::campaign`]), and this module
//! measures. The harness adds no threads: one client issues one
//! campaign at a time, and the only other threads are the ones the
//! program spawns from `available_parallelism`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::names;
use crate::trace::Tracer;

/// Timed repeats a run never goes below, whatever `--seconds` says.
const MIN_REPEATS: usize = 3;
/// `peak_rss_mb` is `VmHWM` once the warm-up and this many timed
/// repeats have run; the smoke scale stops there.
const RSS_AFTER_REPEATS: usize = 2;
/// A traced run splits `--seconds`: the untraced repeats end at the
/// first share, the traced repeats (at least two; layer times are read
/// from the fastest) at the second, ablations and probes get the rest.
const TRACED_RUN_SPLIT: (f64, f64) = (0.35, 0.6);

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the repeats measure for.
    pub seconds: f64,
    /// Also produce the per-layer trace.
    pub trace: bool,
    /// About 1/50 of the size and two timed repeats: the name-drift
    /// test's scale, not a measurement.
    pub smoke: bool,
}

/// The seed `expected.json` pins exact counts for.
pub const DEFAULT_SEED: u64 = 1;

/// Checked operations: one machine, one query or one recovered
/// repository whose outcome matched expectation.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose outcome did not match.
    pub failed: u64,
}

impl Ops {
    /// Counts `n` operations, `failed` of which missed expectation.
    pub fn count(&mut self, n: usize, failed: usize, what: &str) {
        self.attempted += n as u64;
        if failed > 0 {
            eprintln!("check failed: {what}: {failed} of {n} operations");
            self.failed += failed as u64;
        }
    }

    /// Counts a whole-campaign invariant as one operation.
    pub fn invariant(&mut self, holds: bool, what: &str) {
        self.count(1, usize::from(!holds), what);
    }
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// One workload: generator, campaign and checks.
pub trait Workload {
    /// What [`Workload::setup`] hands to the campaign.
    type Input;
    /// What the campaign leaves behind for checking. It owns everything
    /// big, so freeing it falls outside the timed region.
    type Output;

    /// The layer metrics whose sum should account for `campaign_s`.
    fn shares(&self) -> &'static [&'static str];

    /// Everything a repeat does before its timed region: builds the
    /// inputs from the seed.
    fn setup(&self, t: &Tracer) -> Self::Input;

    /// One whole campaign: the timed region.
    fn campaign(&self, input: Self::Input, t: &Tracer) -> Self::Output;

    /// Checks one campaign's outcome and reports its exact counts.
    /// `thorough` is set on the warm-up repeat, where checks that cost as
    /// much as a campaign run; the other repeats are tied to it by their
    /// exact counts.
    fn check(&self, out: &Self::Output, thorough: bool, ops: &mut Ops, exact: &mut Values);

    /// The traced run's workload-specific part: ablations, probes and
    /// metrics read from the trace.
    fn layers(&self, traced: &Traced<'_>, ops: &mut Ops, out: &mut Values);
}

/// What [`Workload::layers`] works from.
#[derive(Debug)]
pub struct Traced<'a> {
    /// The recording tracer.
    pub t: &'a Tracer,
    /// The fastest traced repeat: read layer spans and counters of
    /// this one.
    pub repeat: u32,
    /// Host time left for ablations and probes.
    pub budget: Duration,
    /// The run's `campaign_s`.
    pub campaign_s: f64,
}

/// What a run produced.
#[derive(Debug)]
pub struct Report {
    /// End-to-end metric values (always measured untraced).
    pub end_to_end: Values,
    /// Per-layer values: all of them in a traced run, otherwise only
    /// the diagnostics and exact counts an untraced run knows.
    pub per_layer: Values,
    /// Checked operations.
    pub ops: Ops,
    /// The trace document of a traced run.
    pub trace: Option<mirage_telemetry::json::Value>,
}

struct Samples {
    warmup_s: f64,
    setup_s: Vec<f64>,
    campaign_s: Vec<f64>,
    peak_rss_mb: f64,
}

fn one_repeat<W: Workload>(
    w: &W,
    t: &Tracer,
    thorough: bool,
    ops: &mut Ops,
    exact: &mut Values,
) -> (f64, f64) {
    let started = Instant::now();
    let input = {
        let _span = t.span("setup");
        w.setup(t)
    };
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let out = {
        let _span = t.span("campaign");
        black_box(w.campaign(black_box(input), t))
    };
    let campaign_s = started.elapsed().as_secs_f64();
    let mut counts = Values::new();
    w.check(&out, thorough, ops, &mut counts);
    // Same seed, same inputs: every repeat must count the same.
    let repeats = counts
        .iter()
        .all(|(name, count)| exact.get(name).is_none_or(|first| first == count));
    ops.invariant(repeats, "exact counts repeat across repeats");
    for (name, count) in counts {
        exact.entry(name).or_insert(count);
    }
    (setup_s, campaign_s)
}

/// One untimed warm-up repeat, then timed repeats until `budget` is
/// used (`None`: the fewest allowed, the smoke scale). Every repeat makes its
/// own inputs before its timed region, so memory holds one fleet.
fn untraced_repeats<W: Workload>(
    w: &W,
    budget: Option<Duration>,
    ops: &mut Ops,
    exact: &mut Values,
) -> Samples {
    let off = Tracer::off();
    let (_, warmup_s) = one_repeat(w, &off, true, ops, exact);
    let mut samples = Samples {
        warmup_s,
        setup_s: Vec::new(),
        campaign_s: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let started = Instant::now();
    loop {
        let (setup_s, campaign_s) = one_repeat(w, &off, false, ops, exact);
        samples.setup_s.push(setup_s);
        samples.campaign_s.push(campaign_s);
        // Read where every run gets to. The heap fragments a little more
        // with every repeat, so the high-water mark at exit would depend
        // on how many repeats the host's speed let into the budget.
        if samples.campaign_s.len() == RSS_AFTER_REPEATS {
            samples.peak_rss_mb = peak_rss_mb();
        }
        let done = match budget {
            Some(budget) => started.elapsed() >= budget && samples.campaign_s.len() >= MIN_REPEATS,
            None => samples.campaign_s.len() >= RSS_AFTER_REPEATS,
        };
        if done {
            return samples;
        }
    }
}

fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `q`-quantile (nearest rank) of `samples`; 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() as f64) * q).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Runs one workload as `opts` asks.
pub fn run<W: Workload>(w: &W, opts: &Opts) -> Report {
    let mut ops = Ops::default();
    let mut exact = Values::new();
    let total = Duration::from_secs_f64(opts.seconds);
    let untraced = match (opts.smoke, opts.trace) {
        (true, _) => None,
        (false, true) => Some(total.mul_f64(TRACED_RUN_SPLIT.0)),
        (false, false) => Some(total),
    };
    let run_started = Instant::now();
    let mut samples = untraced_repeats(w, untraced, &mut ops, &mut exact);

    let campaign_s = fastest(&samples.campaign_s);
    let mut end_to_end = Values::new();
    end_to_end.insert(names::CAMPAIGN_S, campaign_s);
    end_to_end.insert(names::SETUP_S, fastest(&samples.setup_s));
    end_to_end.insert(names::PEAK_RSS_MB, samples.peak_rss_mb);

    let mut per_layer = exact.clone();
    per_layer.insert(names::HARNESS_REPEATS, samples.campaign_s.len() as f64);
    per_layer.insert(names::HARNESS_WARMUP_S, samples.warmup_s);
    per_layer.insert(
        names::HARNESS_CAMPAIGN_MAX_S,
        quantile(&mut samples.campaign_s, 1.0),
    );
    per_layer.insert(
        names::HARNESS_CAMPAIGN_MEDIAN_S,
        quantile(&mut samples.campaign_s, 0.5),
    );

    let mut trace = None;
    if opts.trace {
        let t = Tracer::on();
        let traced_until = total.mul_f64(TRACED_RUN_SPLIT.1);
        let fewest = if opts.smoke { 1 } else { 2 };
        let mut best = (0, f64::INFINITY);
        let mut repeats = 0;
        while repeats < fewest || !opts.smoke && run_started.elapsed() < traced_until {
            t.set_repeat(repeats);
            let (_, traced_s) = one_repeat(w, &t, false, &mut ops, &mut exact);
            if traced_s < best.1 {
                best = (repeats, traced_s);
            }
            repeats += 1;
        }
        let (repeat, traced_s) = best;
        // Harness spans are named after the metric they feed; the
        // program's own spans are mapped by `LIBRARY_SPANS`.
        for def in &names::PER_LAYER {
            let spent = t.total_s(repeat, def.name);
            if spent > 0.0 {
                per_layer.insert(def.name, spent);
            }
        }
        for (span, metric) in names::LIBRARY_SPANS {
            per_layer.insert(metric, t.total_s(repeat, span));
        }
        t.set_repeat(repeats);
        let traced = Traced {
            t: &t,
            repeat,
            budget: total.saturating_sub(run_started.elapsed()),
            campaign_s,
        };
        w.layers(&traced, &mut ops, &mut per_layer);
        let explained: f64 = w
            .shares()
            .iter()
            .map(|name| per_layer.get(name).copied().unwrap_or(0.0))
            .sum();
        per_layer.insert(names::HARNESS_OTHER_S, campaign_s - explained);
        per_layer.insert(
            names::TELEMETRY_OVERHEAD_PCT,
            (traced_s / campaign_s - 1.0) * 100.0,
        );
        for def in &names::PER_LAYER {
            per_layer.entry(def.name).or_insert(0.0);
        }
        trace = Some(t.to_json(&opts.workload, opts.seed));
    }

    Report {
        end_to_end,
        per_layer,
        ops,
        trace,
    }
}

/// Times `f` once, in seconds.
pub fn time_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = black_box(f());
    (out, started.elapsed().as_secs_f64())
}

/// Peak resident set of this process so far (`VmHWM`), MiB; 0 where
/// `/proc` does not say.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts printed beside the metrics, never as metrics.
pub fn host_line() -> String {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} available_parallelism={parallelism} rustc=\"{}\" commit={}",
        env!("BENCH_RUSTC_VERSION"),
        commit()
    )
}

/// The checkout's commit, read from `.git` without spawning a process;
/// `unknown` where the checkout is not a git repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                let line = packed.lines().find(|l| l.ends_with(reference))?;
                Some(line.split(' ').next()?.to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        h => h.chars().take(12).collect(),
    }
}

/// Warns on stderr when another `benchmark` process is alive: two runs
/// on one host measure each other. The parent is exempt, so the runs
/// `--selfcheck-noise` spawns stay quiet.
pub fn warn_if_not_alone() {
    let me = std::process::id();
    let parent = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Field 4, after the parenthesised command name.
            s.rsplit_once(')')?
                .1
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0u32);
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if pid == me || pid == parent {
            continue;
        }
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.trim() == "benchmark" {
            eprintln!(
                "warning: another benchmark process (pid {pid}) is alive; timings will be noisy"
            );
        }
    }
}
