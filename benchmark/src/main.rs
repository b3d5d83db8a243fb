//! `benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//! runs one workload in this process (so `VmHWM` is per workload),
//! prints every metric by name with its unit, checks the outputs, and
//! ends with one JSON line. `benchmark --selfcheck-noise N` runs N full
//! sets and judges the spread against the bounds.

mod selfcheck;

use std::process::ExitCode;

use mirage_benchmark::harness::{self, Opts, Report, DEFAULT_SEED};
use mirage_benchmark::names::{self, MetricDef};
use mirage_telemetry::json::Value;

/// Exact counts pinned for [`DEFAULT_SEED`] at full scale.
const EXPECTED: &str = include_str!("../expected.json");
/// Where a traced run writes its spans.
const TRACE_DIR: &str = "benchmark/out";
const USAGE: &str =
    "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       benchmark --selfcheck-noise <sets> [--seconds S]
workloads: live_wide plan_mysql sim_rollout sim_rollback urr_vendor";

enum Command {
    Run(Opts),
    SelfcheckNoise { sets: usize, seconds: f64 },
}

fn read<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read {value:?}"))
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut sets = None;
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = read(flag, value)?,
            "--seconds" => opts.seconds = read(flag, value)?,
            "--trace" => opts.trace = read::<u8>(flag, value)? != 0,
            "--selfcheck-noise" => sets = Some(read(flag, value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be within (0, 600]".into());
    }
    match (workload, sets) {
        (Some(workload), None) => Ok(Command::Run(Opts { workload, ..opts })),
        (None, Some(sets)) if sets >= 2 => Ok(Command::SelfcheckNoise {
            sets,
            seconds: opts.seconds,
        }),
        (None, Some(_)) => Err("--selfcheck-noise needs at least 2 sets".into()),
        _ => Err("give exactly one of --workload and --selfcheck-noise".into()),
    }
}

fn print_metric(def: MetricDef, value: f64) {
    println!("{:<34} {value:>16.6} {}", def.name, def.unit);
}

fn metrics_json(defs: impl Iterator<Item = MetricDef>, values: &harness::Values) -> Value {
    Value::obj(defs.map(|def| {
        (
            def.name,
            Value::obj([
                ("value", Value::from(values[def.name])),
                ("unit", Value::from(def.unit)),
            ]),
        )
    }))
}

/// Compares the run's exact counts with the pinned ones; each mismatch
/// is one failed operation.
fn check_pinned(opts: &Opts, report: &mut Report) {
    if opts.seed != DEFAULT_SEED || opts.smoke {
        return;
    }
    let expected = Value::parse(EXPECTED).expect("expected.json is valid JSON");
    let Some(Value::Obj(pinned)) = expected.get(&opts.workload) else {
        return;
    };
    for (name, want) in pinned {
        // An untraced run knows only some of the counts.
        let Some(got) = report.per_layer.get(name.as_str()) else {
            continue;
        };
        let holds = want.as_f64() == Some(*got);
        report
            .ops
            .invariant(holds, &format!("{name} = {got}, expected.json pins {want}"));
    }
}

fn run(opts: &Opts) -> ExitCode {
    harness::warn_if_not_alone();
    let Some(mut report) = mirage_benchmark::run(opts) else {
        eprintln!("unknown workload {:?}\n{USAGE}", opts.workload);
        return ExitCode::from(2);
    };
    check_pinned(opts, &mut report);

    println!(
        "workload={} seed={} seconds={} trace={} smoke={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.smoke
    );
    println!("{}", harness::host_line());
    for (def, _) in names::END_TO_END {
        print_metric(def, report.end_to_end[def.name]);
    }
    for def in names::PER_LAYER {
        if let Some(&value) = report.per_layer.get(def.name) {
            print_metric(def, value);
        }
    }
    println!(
        "ops_total={} ops_failed={}",
        report.ops.attempted, report.ops.failed
    );

    if let Some(trace) = &report.trace {
        let path = format!("{TRACE_DIR}/trace-{}.json", opts.workload);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, trace.to_compact()));
        match written {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let correct = report.ops.failed == 0;
    let metrics = if opts.trace {
        metrics_json(names::PER_LAYER.into_iter(), &report.per_layer)
    } else {
        metrics_json(
            names::END_TO_END.into_iter().map(|(def, _)| def),
            &report.end_to_end,
        )
    };
    let line = Value::obj([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(report.ops.attempted)),
        ("failed", Value::from(report.ops.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Run(opts)) => run(&opts),
        Ok(Command::SelfcheckNoise { sets, seconds }) => selfcheck::run(sets, seconds),
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
