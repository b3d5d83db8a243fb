//! A minimal, std-only micro-benchmark harness.
//!
//! The bench targets in `benches/` are plain binaries (`harness =
//! false`); each builds a [`Harness`], registers closures with
//! [`Harness::bench`], and prints one aligned result row per benchmark:
//! sample count, min / median / mean times, and optional throughput.
//!
//! Timing uses [`std::time::Instant`] around whole closure invocations.
//! Each benchmark warms up once, then samples until either the
//! per-benchmark wall-time budget is spent or a sample cap is reached,
//! so sub-microsecond and multi-second workloads both finish promptly.
//! Regular benchmarks always take at least three samples, even past
//! the budget, so the committed statistics are never a single
//! observation; workloads too large for that get explicit single-shot
//! rows through [`Harness::bench_scale`], marked `scale` so the
//! bench-check gate can tell the two apart. Set `MIRAGE_BENCH_MS` to
//! grow or shrink the per-benchmark budget.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Summary statistics for one benchmark, all times in nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark name, e.g. `rabin/chunking/avg-4096`.
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min_ns: u64,
    /// Median sample.
    pub p50_ns: u64,
    /// 99th-percentile sample (the slowest one below 100 samples).
    pub p99_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Bytes processed per iteration (for throughput rows).
    pub bytes: Option<u64>,
    /// Single-shot scale row (see [`Harness::bench_scale`]): exactly
    /// one sample by design, exempt from the minimum-sample gate.
    pub scale: bool,
}

impl BenchStats {
    /// Throughput in MiB/s based on the minimum (best) sample.
    pub(crate) fn mib_per_sec(&self) -> Option<f64> {
        let bytes = self.bytes? as f64;
        if self.min_ns == 0 {
            return None;
        }
        Some(bytes / (1 << 20) as f64 / (self.min_ns as f64 / 1e9))
    }
}

/// Formats nanoseconds with an adaptive unit.
pub(crate) fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Floor on timed samples for regular benchmarks: statistics from one
/// or two observations are noise, so the budget loop keeps sampling
/// until it has at least this many.
pub(crate) const MIN_SAMPLES: usize = 3;

/// A benchmark suite: runs closures and prints aligned result rows.
pub struct Harness {
    target: Duration,
    results: Vec<BenchStats>,
}

/// Cap on timed samples per benchmark, so sub-microsecond workloads
/// finish before the budget does.
const MAX_SAMPLES: usize = 1_000;

/// Wraps `f` into a closure that reports the nanoseconds of one whole
/// invocation; the return value goes through [`black_box`] so the
/// optimiser cannot delete the measured work.
fn timed<R>(mut f: impl FnMut() -> R) -> impl FnMut() -> u64 {
    move || {
        let t0 = Instant::now();
        black_box(f());
        t0.elapsed().as_nanos() as u64
    }
}

impl Harness {
    /// Creates a suite and prints its header.
    ///
    /// The per-benchmark time budget defaults to 150 ms and can be
    /// overridden with the `MIRAGE_BENCH_MS` environment variable.
    pub fn new(suite: &str) -> Self {
        let ms = std::env::var("MIRAGE_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(150);
        println!("== {suite} (budget {ms} ms/bench) ==");
        println!(
            "{:<44} {:>8} {:>12} {:>12} {:>12}",
            "benchmark", "samples", "min", "median", "mean"
        );
        Harness {
            target: Duration::from_millis(ms),
            results: Vec::new(),
        }
    }

    /// Times `f`, records its statistics, and prints one result row.
    pub fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R) -> &BenchStats {
        self.bench_ns(name, timed(f))
    }

    /// Like [`Harness::bench`], additionally reporting MiB/s throughput
    /// for a workload that processes `bytes` bytes per iteration.
    pub fn bench_bytes<R>(&mut self, name: &str, bytes: u64, f: impl FnMut() -> R) -> &BenchStats {
        self.sample(&[name], Some(bytes), false, &mut [&mut timed(f)]);
        self.last()
    }

    /// Like [`Harness::bench`], but `f` returns the nanoseconds of its
    /// own timed region, so per-sample setup (a fresh repository, an
    /// untimed interning pass) stays out of the statistics.
    pub fn bench_ns(&mut self, name: &str, mut f: impl FnMut() -> u64) -> &BenchStats {
        self.sample(&[name], None, false, &mut [&mut f]);
        self.last()
    }

    /// Times two closures with strictly interleaved samples (A, B, A,
    /// B, …) and records one result row for each.
    ///
    /// Sequential benchmarks silently charge slow drift — turbo-clock
    /// decay, thermal throttling, background load — to whichever
    /// closure runs later, which can dwarf the real difference in a
    /// paired comparison (an overhead measurement, an A/B of two
    /// implementations). Interleaving lands the drift on both sides
    /// equally, so `min(A)` and `min(B)` come from the same
    /// environment. The pair shares a doubled time budget.
    pub fn bench_paired<RA, RB>(
        &mut self,
        name_a: &str,
        name_b: &str,
        fa: impl FnMut() -> RA,
        fb: impl FnMut() -> RB,
    ) {
        self.bench_paired_ns(name_a, name_b, timed(fa), timed(fb));
    }

    /// Like [`Harness::bench_paired`], but each closure returns the
    /// nanoseconds of its own timed region.
    ///
    /// Use this when per-sample setup must stay out of the statistics —
    /// cloning a large deployment plan, resetting a reusable arena —
    /// on *both* sides of the pair, while samples remain strictly
    /// interleaved. The closures are trusted to time symmetric regions;
    /// an asymmetric exclusion would bias the comparison.
    pub fn bench_paired_ns(
        &mut self,
        name_a: &str,
        name_b: &str,
        mut fa: impl FnMut() -> u64,
        mut fb: impl FnMut() -> u64,
    ) {
        self.sample(&[name_a, name_b], None, false, &mut [&mut fa, &mut fb]);
    }

    /// Times `f` exactly once — no warmup, one sample — and records the
    /// row marked as a *scale* run.
    ///
    /// For workloads so large that even `MIN_SAMPLES` (3) repetitions are
    /// unaffordable (a 10M-machine simulation), one honest sample beats
    /// none; the `scale` marker tells `bench-check` the single sample
    /// is intentional rather than a truncated run.
    pub fn bench_scale<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> &BenchStats {
        let mut f = Some(f);
        let mut once = timed(|| (f.take().expect("scale rows sample exactly once"))());
        self.sample(&[name], None, true, &mut [&mut once]);
        self.last()
    }

    /// The one sampling loop. Each of `runs` returns the nanoseconds of
    /// its own timed region; one round samples every closure once, in
    /// order, so the rows of a pair (or any N-tuple) are interleaved
    /// and share `runs.len()` budgets. After one untimed warmup round,
    /// rounds repeat until the budget is spent and [`MIN_SAMPLES`] are
    /// in, or the sample cap is hit. A `scale` row is the degenerate
    /// case: no warmup, exactly one round.
    fn sample(
        &mut self,
        names: &[&str],
        bytes: Option<u64>,
        scale: bool,
        runs: &mut [&mut dyn FnMut() -> u64],
    ) {
        let (floor, cap) = if scale {
            (1, 1)
        } else {
            // Populate caches and lazy state.
            for run in runs.iter_mut() {
                black_box(run());
            }
            (MIN_SAMPLES, MAX_SAMPLES)
        };
        let budget = self.target * runs.len() as u32;
        let started = Instant::now();
        let mut samples: Vec<Vec<u64>> = vec![Vec::new(); runs.len()];
        loop {
            for (run, out) in runs.iter_mut().zip(&mut samples) {
                out.push(run());
            }
            let rounds = samples[0].len();
            if (started.elapsed() >= budget && rounds >= floor) || rounds >= cap {
                break;
            }
        }
        for (name, samples_ns) in names.iter().zip(samples) {
            self.push_row(name, bytes, scale, samples_ns);
        }
    }

    fn push_row(&mut self, name: &str, bytes: Option<u64>, scale: bool, mut samples_ns: Vec<u64>) {
        samples_ns.sort_unstable();
        let n = samples_ns.len();
        let stats = BenchStats {
            name: name.to_string(),
            samples: n,
            min_ns: samples_ns[0],
            p50_ns: samples_ns[n / 2],
            p99_ns: samples_ns[(n * 99 / 100).min(n - 1)],
            mean_ns: samples_ns.iter().sum::<u64>() as f64 / n as f64,
            max_ns: samples_ns[n - 1],
            bytes,
            scale,
        };
        let throughput = stats
            .mib_per_sec()
            .map(|t| format!("  {t:.0} MiB/s"))
            .unwrap_or_default();
        println!(
            "{:<44} {:>8} {:>12} {:>12} {:>12}{throughput}",
            stats.name,
            stats.samples,
            fmt_ns(stats.min_ns as f64),
            fmt_ns(stats.p50_ns as f64),
            fmt_ns(stats.mean_ns),
        );
        self.results.push(stats);
    }

    fn last(&self) -> &BenchStats {
        self.results.last().expect("a row was just pushed")
    }

    /// All results recorded so far.
    pub fn results(&self) -> &[BenchStats] {
        &self.results
    }

    /// The recorded row called `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such benchmark ran.
    pub fn row(&self, name: &str) -> &BenchStats {
        self.results
            .iter()
            .find(|r| r.name == name)
            .expect("benchmark ran")
    }

    /// How many times faster row `fast` is than row `slow`, on their
    /// minimum (best) samples.
    pub fn speedup(&self, slow: &str, fast: &str) -> f64 {
        self.row(slow).min_ns as f64 / self.row(fast).min_ns.max(1) as f64
    }
}

#[cfg(test)]
impl BenchStats {
    /// A well-formed row for tests: five samples over 100..=200 ns, or
    /// the single 100 ns sample of a `scale` row.
    pub(crate) fn example(name: &str, scale: bool) -> Self {
        let (samples, spread) = if scale { (1, 0) } else { (5, 100) };
        BenchStats {
            name: name.to_string(),
            samples,
            min_ns: 100,
            p50_ns: 100 + spread / 5,
            p99_ns: 100 + spread,
            mean_ns: 100.0 + spread as f64 / 3.0,
            max_ns: 100 + spread,
            bytes: None,
            scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_sane_stats() {
        std::env::set_var("MIRAGE_BENCH_MS", "5");
        let mut h = Harness::new("test-suite");
        let mut count = 0u64;
        let stats = h.bench("busy-loop", || {
            count += 1;
            (0..1000u64).sum::<u64>()
        });
        assert!(stats.samples >= MIN_SAMPLES, "{}", stats.samples);
        assert!(!stats.scale);
        assert!(stats.min_ns <= stats.p50_ns);
        assert!(stats.p50_ns <= stats.p99_ns);
        assert!(stats.p99_ns <= stats.max_ns);
        assert!(count as usize >= stats.samples);
        assert_eq!(h.results().len(), 1);
        let one_shot = h.bench_scale("one-shot", || (0..1000u64).sum::<u64>());
        assert_eq!(one_shot.samples, 1);
        assert!(one_shot.scale);
        assert_eq!(h.results().len(), 2);
        std::env::remove_var("MIRAGE_BENCH_MS");
    }

    #[test]
    fn paired_ns_records_reported_regions() {
        std::env::set_var("MIRAGE_BENCH_MS", "1");
        let mut h = Harness::new("paired-ns-suite");
        h.bench_paired_ns("a", "b", || 100, || 200);
        let a = &h.results()[0];
        let b = &h.results()[1];
        assert_eq!(a.name, "a");
        assert!(a.samples >= MIN_SAMPLES);
        assert_eq!(a.samples, b.samples, "interleaved pairs sample in lockstep");
        // The recorded statistics are exactly the reported regions, not
        // closure wall time.
        assert_eq!((a.min_ns, a.max_ns), (100, 100));
        assert_eq!((b.min_ns, b.max_ns), (200, 200));
        assert!(!a.scale && !b.scale);
        std::env::remove_var("MIRAGE_BENCH_MS");
    }

    #[test]
    fn throughput_and_formatting() {
        let stats = BenchStats {
            name: "x".into(),
            samples: 1,
            min_ns: 1_000_000, // 1 ms
            p50_ns: 1_000_000,
            p99_ns: 1_000_000,
            mean_ns: 1_000_000.0,
            max_ns: 1_000_000,
            bytes: Some(1 << 20), // 1 MiB in 1 ms = 1000 MiB/s
            scale: false,
        };
        let t = stats.mib_per_sec().unwrap();
        assert!((t - 1000.0).abs() < 1e-6, "{t}");
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_000_000.0), "2.00 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00 s");
    }
}
